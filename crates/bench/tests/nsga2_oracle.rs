//! The two-objective sort-and-sweep is pinned to the `O(N²)` count-down
//! it replaced (`caffeine_bench::perf::reference_nondominated_sort`): the
//! same fronts, each in the same order, on inputs built to stress the
//! sweep — tie-heavy integer grids, exact duplicates, `-0.0` next to
//! `+0.0`, and infinities. Crowding distances and the environmental
//! selection, which orders only the fronts it takes survivors from, are
//! pinned the same way to the stable-sort versions below, run on the
//! count-down's fronts.

use std::cmp::Ordering;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use caffeine_bench::perf::{gp_objectives, reference_nondominated_sort};
use caffeine_core::nsga2::{crowding_distances, environmental_selection, fast_nondominated_sort};

/// Crowding distances as first written: a stable `partial_cmp` sort per
/// objective, the second keeping the first's order among ties.
fn reference_crowding(objectives: &[[f64; 2]], front: &[usize]) -> Vec<f64> {
    let m = front.len();
    if m <= 2 {
        return vec![f64::INFINITY; m];
    }
    let mut distance = vec![0.0f64; m];
    let mut order: Vec<usize> = (0..m).collect();
    for k in 0..2 {
        order.sort_by(|&a, &b| {
            objectives[front[a]][k]
                .partial_cmp(&objectives[front[b]][k])
                .unwrap_or(Ordering::Equal)
        });
        distance[order[0]] = f64::INFINITY;
        distance[order[m - 1]] = f64::INFINITY;
        let lo = objectives[front[order[0]]][k];
        let hi = objectives[front[order[m - 1]]][k];
        let span = hi - lo;
        if span <= 0.0 || !span.is_finite() {
            continue;
        }
        for w in 1..(m - 1) {
            let prev = objectives[front[order[w - 1]]][k];
            let next = objectives[front[order[w + 1]]][k];
            distance[order[w]] += (next - prev) / span;
        }
    }
    distance
}

/// Elitist selection over every front of the count-down (`fronts`):
/// whole fronts while they fit, then the next one truncated by a stable
/// sort on descending crowding distance.
fn reference_selection(objectives: &[[f64; 2]], fronts: &[Vec<usize>], n: usize) -> Vec<usize> {
    let mut survivors = Vec::with_capacity(n);
    for front in fronts {
        if survivors.len() + front.len() <= n {
            survivors.extend_from_slice(front);
        } else {
            let dist = reference_crowding(objectives, front);
            let mut by_crowding: Vec<usize> = (0..front.len()).collect();
            by_crowding.sort_by(|&a, &b| dist[b].partial_cmp(&dist[a]).unwrap_or(Ordering::Equal));
            for &i in by_crowding.iter().take(n - survivors.len()) {
                survivors.push(front[i]);
            }
            break;
        }
    }
    survivors
}

/// Survivor counts at and around every front boundary (the sizes the
/// fronts sum to, one less and one more), plus zero.
fn boundary_sizes(fronts: &[Vec<usize>]) -> Vec<usize> {
    let mut sizes = vec![0];
    let mut total = 0;
    for front in fronts {
        total += front.len();
        sizes.extend([total.saturating_sub(1), total, total + 1]);
    }
    sizes
}

/// Crowding distances as bits, so the comparison is exact.
fn bits(distances: &[f64]) -> Vec<u64> {
    distances.iter().map(|d| d.to_bits()).collect()
}

/// Asserts crowding and selection against the references on every front
/// of `objectives` and at every boundary size. Crowding is also compared
/// on all the points taken as one set, whose ties (unlike a front's) need
/// not be exact duplicates.
fn assert_selection_matches(objectives: &[[f64; 2]]) -> Result<(), TestCaseError> {
    let fronts = reference_nondominated_sort(objectives);
    let everyone: Vec<usize> = (0..objectives.len()).collect();
    for front in fronts.iter().chain([&everyone]) {
        prop_assert_eq!(
            bits(&crowding_distances(objectives, front)),
            bits(&reference_crowding(objectives, front))
        );
    }
    for n in boundary_sizes(&fronts) {
        prop_assert_eq!(
            environmental_selection(objectives, n),
            reference_selection(objectives, &fronts, n)
        );
    }
    Ok(())
}

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

/// `n` points off a small grid, a fifth of them duplicates of earlier
/// ones with their zeros' signs flipped half the time (`-0.0 == 0.0`, so
/// still a tie).
fn tied_objectives(seed: u64) -> Vec<[f64; 2]> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(0..=150usize);
    let grid = rng.gen_range(1..=12i32);
    let mut objs: Vec<[f64; 2]> = Vec::with_capacity(n);
    for _ in 0..n {
        let o = if !objs.is_empty() && rng.gen_range(0..5u32) == 0 {
            let flip = rng.gen_range(0..2u32) == 0;
            objs[rng.gen_range(0..objs.len())].map(|v| if flip && v == 0.0 { -v } else { v })
        } else {
            [value(&mut rng, grid), value(&mut rng, grid)]
        };
        objs.push(o);
    }
    objs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn sweep_reproduces_countdown_fronts_and_order(seed in 0u64..u64::MAX) {
        let objs = tied_objectives(seed);
        prop_assert_eq!(fast_nondominated_sort(&objs), reference_nondominated_sort(&objs));
    }

    #[test]
    fn sweep_matches_countdown_on_gp_shaped_populations(seed in 0u64..u64::MAX, n in 1usize..=400) {
        let objs = gp_objectives(n, seed);
        prop_assert_eq!(fast_nondominated_sort(&objs), reference_nondominated_sort(&objs));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn selection_matches_the_countdown_on_tied_inputs(seed in 0u64..u64::MAX) {
        assert_selection_matches(&tied_objectives(seed))?;
    }

    #[test]
    fn selection_matches_the_countdown_on_gp_shaped_populations(
        seed in 0u64..u64::MAX,
        n in 1usize..=400,
    ) {
        assert_selection_matches(&gp_objectives(n, seed))?;
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
        assert_selection_matches(&objs).unwrap();
    }
}
