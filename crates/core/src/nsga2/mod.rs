//! NSGA-II: fast elitist non-dominated sorting for multi-objective
//! selection (Deb et al., the paper's ref. \[8\]).
//!
//! CAFFEINE minimizes two objectives — normalized error and expression
//! complexity — and returns the whole non-dominated set, which is what
//! gives the designer the error/complexity tradeoff of Fig. 3. Every
//! ranking entry point here takes exactly those two objectives as
//! `[error, complexity]` pairs ([`crate::gp::Individual::objectives`]).
//!
//! # Objectives are NaN-free
//!
//! The sort relies on a total order of the objective values, so they must
//! never be NaN (±∞ is fine). The engine guarantees it: a non-finite error
//! is replaced by the settings' `infeasible_error`, which
//! [`crate::CaffeineSettings::check`] rejects when NaN, and complexity is
//! always finite. Debug builds assert it.
//!
//! # Exact front order
//!
//! [`fast_nondominated_sort`] runs in `O(N log N)` but returns the same
//! fronts, each in the same order, as Deb's `O(N²)` count-down (whose
//! order feeds crowding-distance ties and so the run itself):
//!
//! * front 0 lists its members in ascending index order;
//! * front `i + 1` lists its members by the position in front `i` of
//!   their *last* dominator there, then by index. The count-down releases
//!   a point exactly when it reaches that dominator, and each dominator's
//!   list is in ascending index order.
//!
//! `caffeine_bench::perf` keeps the count-down as the reference the
//! property tests compare against.

use std::cmp::Ordering;
use std::collections::VecDeque;

/// `true` when `a` Pareto-dominates `b` (all objectives ≤, at least one <;
/// minimization).
///
/// # Panics
///
/// Panics when the objective vectors have different lengths.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "objective length mismatch");
    let mut strictly_better = false;
    for (x, y) in a.iter().zip(b.iter()) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// An integer whose order is `partial_cmp`'s on NaN-free values: `-0.0`
/// and `+0.0` map to one key (they must tie, or a point could sort after
/// one it dominates), and a negative value's bits are inverted so that
/// it orders below every larger one.
fn order_key(x: f64) -> u64 {
    // `-0.0 + 0.0` is `+0.0`; every other value keeps its bits.
    let bits = (x + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// `0..len` sorted by `key` ascending, ties in index order: the order a
/// stable `sort_by` on the keyed values gives, at the cost of an
/// unstable sort of integers.
fn stable_order(len: usize, key: impl Fn(usize) -> u64) -> Vec<usize> {
    let mut keyed: Vec<(u64, usize)> = (0..len).map(|i| (key(i), i)).collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Fast non-dominated sort: partitions indices into fronts; front 0 is the
/// non-dominated set, front 1 is non-dominated once front 0 is removed,
/// and so on. See the module docs for the order within each front.
///
/// A sort-and-sweep: in lexicographic order every dominator of a point
/// comes before it, and a front dominates the point iff its tail — the
/// least complexity seen so far, with the error at which it was first
/// reached — does. Front membership is monotone (a point dominated by
/// front `i + 1` is dominated by front `i`), so each point finds its front
/// by binary search over the tails.
pub fn fast_nondominated_sort(objectives: &[[f64; 2]]) -> Vec<Vec<usize>> {
    leading_fronts(objectives, objectives.len())
}

/// The leading fronts of [`fast_nondominated_sort`], equal to its own
/// and in its order, up to the first that brings their total size to
/// `need` (every front when `need` is never reached). Every point is
/// still assigned its front; only the ordering of the fronts past that
/// one, which costs the most, is skipped.
fn leading_fronts(objectives: &[[f64; 2]], need: usize) -> Vec<Vec<usize>> {
    debug_assert!(
        objectives.iter().flatten().all(|v| !v.is_nan()),
        "NaN objective"
    );
    // Lexicographic order on `[error, complexity]`, ties by index.
    let mut lex: Vec<(u64, u64, usize)> = objectives
        .iter()
        .enumerate()
        .map(|(i, &[error, cx])| (order_key(error), order_key(cx), i))
        .collect();
    lex.sort_unstable();

    // Members of each front in lexicographic order, and each front's tail
    // `(least complexity, error where it was first reached)`.
    let mut by_lex: Vec<Vec<usize>> = Vec::new();
    let mut tails: Vec<(f64, f64)> = Vec::new();
    for &(_, _, p) in &lex {
        let [error, cx] = objectives[p];
        let f = tails.partition_point(|&(t_cx, t_err)| t_cx < cx || (t_cx == cx && t_err < error));
        if f == tails.len() {
            tails.push((cx, error));
            by_lex.push(vec![p]);
        } else {
            if cx < tails[f].0 {
                tails[f] = (cx, error);
            }
            by_lex[f].push(p);
        }
    }

    let mut fronts: Vec<Vec<usize>> = Vec::with_capacity(by_lex.len());
    let Some(first) = by_lex.first() else {
        return fronts;
    };
    let mut front0 = first.clone();
    front0.sort_unstable();
    let mut covered = front0.len();
    fronts.push(front0);

    // Within a front, lexicographic order has error non-decreasing and
    // complexity non-increasing, so the members of front i dominating a
    // point q of front i+1 are one contiguous run of `by_lex[i]`: those
    // with error ≤ q's (a prefix) and complexity ≤ q's (a suffix). Along
    // `by_lex[i + 1]` both ends only advance, so a sliding-window maximum
    // gives each q its last dominator in O(1) amortized.
    let mut position = vec![0usize; objectives.len()];
    let mut window: VecDeque<usize> = VecDeque::new();
    for i in 0..by_lex.len() - 1 {
        if covered >= need {
            break;
        }
        for (pos, &p) in fronts[i].iter().enumerate() {
            position[p] = pos;
        }
        let prev = &by_lex[i];
        let (mut lo, mut hi) = (0, 0);
        window.clear();
        let mut keyed: Vec<(usize, usize)> = Vec::with_capacity(by_lex[i + 1].len());
        for &q in &by_lex[i + 1] {
            let [error, cx] = objectives[q];
            while hi < prev.len() && objectives[prev[hi]][0] <= error {
                while window
                    .back()
                    .is_some_and(|&b| position[prev[b]] <= position[prev[hi]])
                {
                    window.pop_back();
                }
                window.push_back(hi);
                hi += 1;
            }
            while lo < hi && objectives[prev[lo]][1] > cx {
                lo += 1;
            }
            while window.front().is_some_and(|&f| f < lo) {
                window.pop_front();
            }
            let last = window
                .front()
                .expect("a point in front i+1 has a dominator in front i");
            keyed.push((position[prev[*last]], q));
        }
        keyed.sort_unstable();
        covered += keyed.len();
        fronts.push(keyed.into_iter().map(|(_, q)| q).collect());
    }
    fronts
}

/// Crowding distance of each member of one front (aligned with `front`).
/// Boundary solutions get `f64::INFINITY`.
pub fn crowding_distances(objectives: &[[f64; 2]], front: &[usize]) -> Vec<f64> {
    let m = front.len();
    if m == 0 {
        return Vec::new();
    }
    if m <= 2 {
        return vec![f64::INFINITY; m];
    }
    let mut distance = vec![0.0f64; m];
    let mut order: Vec<usize> = (0..m).collect();
    for k in 0..2 {
        // Stable: ties keep the previous objective's order.
        order = stable_order(m, |pos| order_key(objectives[front[order[pos]]][k]))
            .into_iter()
            .map(|pos| order[pos])
            .collect();
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

/// Rank (front index) and crowding distance for every individual.
#[derive(Debug, Clone)]
pub struct RankedPopulation {
    /// Front index per individual (0 = non-dominated).
    pub rank: Vec<usize>,
    /// Crowding distance per individual.
    pub crowding: Vec<f64>,
    /// The fronts themselves.
    pub fronts: Vec<Vec<usize>>,
}

/// Ranks a population: non-dominated sort plus per-front crowding.
pub fn rank_population(objectives: &[[f64; 2]]) -> RankedPopulation {
    let fronts = fast_nondominated_sort(objectives);
    let mut rank = vec![0usize; objectives.len()];
    let mut crowding = vec![0.0f64; objectives.len()];
    for (fi, front) in fronts.iter().enumerate() {
        let dist = crowding_distances(objectives, front);
        for (&idx, &d) in front.iter().zip(dist.iter()) {
            rank[idx] = fi;
            crowding[idx] = d;
        }
    }
    RankedPopulation {
        rank,
        crowding,
        fronts,
    }
}

impl RankedPopulation {
    /// NSGA-II's crowded-comparison: lower rank wins; ties break toward
    /// larger crowding distance.
    pub fn crowded_less(&self, a: usize, b: usize) -> bool {
        match self.rank[a].cmp(&self.rank[b]) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => self.crowding[a] > self.crowding[b],
        }
    }

    /// Binary tournament under the crowded comparison.
    pub fn tournament<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let n = self.rank.len();
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if self.crowded_less(a, b) {
            a
        } else {
            b
        }
    }
}

/// NSGA-II environmental selection: picks `n` survivors from the combined
/// parent+offspring population, filling whole fronts and truncating the
/// last one by crowding distance. Only the fronts that contribute a
/// survivor are ordered.
pub fn environmental_selection(objectives: &[[f64; 2]], n: usize) -> Vec<usize> {
    let fronts = leading_fronts(objectives, n);
    let mut survivors = Vec::with_capacity(n);
    for front in fronts {
        if survivors.len() == n {
            break;
        }
        if survivors.len() + front.len() <= n {
            survivors.extend_from_slice(&front);
        } else {
            let dist = crowding_distances(objectives, &front);
            // Largest distance first, ties in front order.
            let by_crowding = stable_order(front.len(), |i| !order_key(dist[i]));
            for &i in by_crowding.iter().take(n - survivors.len()) {
                survivors.push(front[i]);
            }
            break;
        }
    }
    survivors
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dominance_basic_cases() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0])); // equal: no strict
    }

    #[test]
    fn sort_recovers_known_fronts() {
        let objs = vec![
            [1.0, 4.0], // front 0
            [2.0, 3.0], // front 0
            [4.0, 1.0], // front 0
            [3.0, 4.0], // dominated by 0 and 1
            [5.0, 5.0], // dominated by everything
        ];
        let fronts = fast_nondominated_sort(&objs);
        assert_eq!(fronts[0], vec![0, 1, 2]);
        assert_eq!(fronts[1], vec![3]);
        assert_eq!(fronts[2], vec![4]);
    }

    #[test]
    fn sort_matches_bruteforce_on_random_population() {
        let mut rng = StdRng::seed_from_u64(13);
        use rand::Rng;
        let objs: Vec<[f64; 2]> = (0..60)
            .map(|_| [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
            .collect();
        let fronts = fast_nondominated_sort(&objs);
        // Brute force front 0.
        let brute: Vec<usize> = (0..objs.len())
            .filter(|&i| !(0..objs.len()).any(|j| dominates(&objs[j], &objs[i])))
            .collect();
        let mut f0 = fronts[0].clone();
        f0.sort_unstable();
        assert_eq!(f0, brute);
        // Every index appears exactly once overall.
        let total: usize = fronts.iter().map(Vec::len).sum();
        assert_eq!(total, objs.len());
    }

    #[test]
    fn crowding_prefers_spread() {
        let objs = vec![
            [0.0, 1.0],
            [0.45, 0.55], // crowded middle
            [0.5, 0.5],
            [0.55, 0.45],
            [1.0, 0.0],
        ];
        let front: Vec<usize> = (0..5).collect();
        let d = crowding_distances(&objs, &front);
        assert!(d[0].is_infinite());
        assert!(d[4].is_infinite());
        assert!(d[2] < d[1] + d[3]); // middle is most crowded
    }

    #[test]
    fn crowding_small_fronts_are_infinite() {
        let objs = vec![[1.0, 2.0], [2.0, 1.0]];
        let d = crowding_distances(&objs, &[0, 1]);
        assert!(d.iter().all(|v| v.is_infinite()));
        assert!(crowding_distances(&objs, &[]).is_empty());
    }

    #[test]
    fn environmental_selection_keeps_best_front_whole() {
        let objs = vec![
            [1.0, 4.0],
            [2.0, 3.0],
            [4.0, 1.0],
            [3.0, 4.0],
            [5.0, 5.0],
            [6.0, 6.0],
        ];
        let survivors = environmental_selection(&objs, 4);
        assert_eq!(survivors.len(), 4);
        for idx in [0, 1, 2] {
            assert!(survivors.contains(&idx), "front-0 member {idx} dropped");
        }
    }

    #[test]
    fn environmental_selection_truncates_by_crowding() {
        // One big front; selection must prefer the extremes.
        let objs = vec![
            [0.0, 1.0],
            [0.26, 0.74],
            [0.25, 0.75],
            [0.24, 0.76],
            [1.0, 0.0],
        ];
        let survivors = environmental_selection(&objs, 3);
        assert!(survivors.contains(&0));
        assert!(survivors.contains(&4));
    }

    #[test]
    fn crowded_comparison_and_tournament() {
        let objs = vec![
            [1.0, 1.0], // rank 0
            [2.0, 2.0], // rank 1
            [3.0, 3.0], // rank 2
        ];
        let ranked = rank_population(&objs);
        assert!(ranked.crowded_less(0, 1));
        assert!(!ranked.crowded_less(2, 1));
        let mut rng = StdRng::seed_from_u64(3);
        // Tournament always returns a valid index and favors rank 0.
        let wins0 = (0..1000)
            .filter(|_| ranked.tournament(&mut rng) == 0)
            .count();
        assert!(wins0 > 400, "rank-0 wins only {wins0}/1000");
    }

    #[test]
    fn infeasible_sentinels_rank_last() {
        let objs = vec![
            [0.1, 10.0],
            [1e30, 5.0], // infeasible sentinel
            [0.2, 8.0],
        ];
        let ranked = rank_population(&objs);
        assert_eq!(ranked.rank[0], 0);
        assert_eq!(ranked.rank[2], 0);
        // The sentinel is only non-dominated because of its lower
        // complexity; it must not dominate anything.
        assert!(!dominates(&objs[1], &objs[0]));
    }
}
