use crate::gf3::{all_vectors, dot, Gf3};
use crate::DoeError;

/// A strength-2 orthogonal array with 3 levels, `OA(3^k, q, 3, 2)`.
///
/// Built with the Rao–Hamming construction: runs are the vectors of
/// GF(3)^k; columns are the projective points of PG(k−1, 3) — the nonzero
/// vectors whose first nonzero coordinate is 1, `q = (3^k − 1)/2` of them —
/// and entry `(r, c)` is the dot product `r·c` over GF(3).
///
/// Strength 2 means: in any *pair* of columns, each of the 9 level pairs
/// appears exactly `3^(k−2)` times. This is the "full orthogonal-hypercube
/// DOE" of the paper: for `k = 5` we get 243 runs, exactly the paper's
/// sample count, and 121 available columns from which the 13 design
/// variables take the first 13.
///
/// # Example
///
/// ```
/// use caffeine_doe::OrthogonalArray;
///
/// let oa = OrthogonalArray::rao_hamming(2).unwrap(); // OA(9, 4, 3, 2)
/// assert_eq!(oa.runs(), 9);
/// assert_eq!(oa.columns(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrthogonalArray {
    /// Level matrix, `runs × columns`, entries in `{0, 1, 2}`.
    levels: Vec<Vec<u8>>,
    runs: usize,
    columns: usize,
}

impl OrthogonalArray {
    /// Builds `OA(3^k, (3^k − 1)/2, 3, 2)` with the Rao–Hamming construction.
    ///
    /// # Errors
    ///
    /// Returns [`DoeError::InvalidParameter`] when `k = 0` or when `3^k`
    /// would overflow the address space (`k > 12`).
    pub fn rao_hamming(k: usize) -> Result<Self, DoeError> {
        if k == 0 {
            return Err(DoeError::InvalidParameter("k must be >= 1".into()));
        }
        if k > 12 {
            return Err(DoeError::InvalidParameter(format!(
                "k = {k} gives 3^{k} runs, which is unreasonably large"
            )));
        }
        // Column generators: projective representatives (first nonzero
        // coordinate equals 1).
        let mut generators: Vec<Vec<Gf3>> = Vec::new();
        for v in all_vectors(k) {
            if let Some(first_nonzero) = v.iter().find(|g| **g != Gf3::ZERO) {
                if *first_nonzero == Gf3::ONE {
                    generators.push(v);
                }
            }
        }
        debug_assert_eq!(generators.len(), (3usize.pow(k as u32) - 1) / 2);
        // Order by Hamming weight so the k unit vectors come first: any
        // prefix of >= k columns then spans GF(3)^k, which makes the
        // run -> levels projection injective (distinct design points when
        // only the first q columns are used, as the OTA experiment does).
        generators.sort_by_key(|v| v.iter().filter(|g| **g != Gf3::ZERO).count());

        let runs_vecs = all_vectors(k);
        let levels: Vec<Vec<u8>> = runs_vecs
            .iter()
            .map(|r| generators.iter().map(|c| dot(r, c).value()).collect())
            .collect();
        let runs = levels.len();
        let columns = generators.len();
        Ok(OrthogonalArray {
            levels,
            runs,
            columns,
        })
    }

    /// Builds the smallest Rao–Hamming array that offers at least
    /// `min_columns` columns (and therefore at least `min_runs` runs).
    ///
    /// # Errors
    ///
    /// Returns [`DoeError::TooManyColumns`] if no `k ≤ 12` suffices.
    pub fn with_capacity(min_runs: usize, min_columns: usize) -> Result<Self, DoeError> {
        for k in 1..=12usize {
            let runs = 3usize.pow(k as u32);
            let cols = (runs - 1) / 2;
            if runs >= min_runs && cols >= min_columns {
                return Self::rao_hamming(k);
            }
        }
        Err(DoeError::TooManyColumns {
            requested: min_columns,
            available: (3usize.pow(12) - 1) / 2,
        })
    }

    /// Number of runs (rows).
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Number of available columns (factors).
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// The level (0, 1 or 2) of factor `column` in run `run`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn level(&self, run: usize, column: usize) -> u8 {
        self.levels[run][column]
    }

    /// Borrows run `run` as a slice of levels.
    ///
    /// # Panics
    ///
    /// Panics when `run >= runs`.
    pub fn run_levels(&self, run: usize) -> &[u8] {
        &self.levels[run]
    }

    /// Checks the strength-2 property on the given columns: every ordered
    /// pair of levels appears equally often in every pair of distinct
    /// columns.
    // lint: allow(test-only-api) — doe's proptests and crate doc test check the OA property
    pub fn verify_strength_two(&self, columns: &[usize]) -> bool {
        let expected = self.runs / 9;
        for (ai, &a) in columns.iter().enumerate() {
            for &b in &columns[ai + 1..] {
                if a >= self.columns || b >= self.columns {
                    return false;
                }
                let mut counts = [[0usize; 3]; 3];
                for row in &self.levels {
                    counts[row[a] as usize][row[b] as usize] += 1;
                }
                for r in &counts {
                    for &c in r {
                        if c != expected {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Checks level balance in a single column (each level appears
    /// `runs / 3` times).
    // lint: allow(test-only-api) — doe's proptests check each column's level balance
    pub fn verify_balance(&self, column: usize) -> bool {
        if column >= self.columns {
            return false;
        }
        let mut counts = [0usize; 3];
        for row in &self.levels {
            counts[row[column] as usize] += 1;
        }
        counts.iter().all(|&c| c == self.runs / 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oa9_matches_textbook_size() {
        let oa = OrthogonalArray::rao_hamming(2).unwrap();
        assert_eq!(oa.runs(), 9);
        assert_eq!(oa.columns(), 4);
        assert!(oa.verify_strength_two(&[0, 1, 2, 3]));
    }

    #[test]
    fn oa243_has_enough_columns_for_the_ota() {
        let oa = OrthogonalArray::rao_hamming(5).unwrap();
        assert_eq!(oa.runs(), 243);
        assert_eq!(oa.columns(), 121);
        let cols: Vec<usize> = (0..13).collect();
        assert!(oa.verify_strength_two(&cols));
        for c in 0..13 {
            assert!(oa.verify_balance(c));
        }
    }

    #[test]
    fn with_capacity_picks_smallest_k() {
        let oa = OrthogonalArray::with_capacity(100, 13).unwrap();
        assert_eq!(oa.runs(), 243); // 3^4=81 runs is too few
        let oa2 = OrthogonalArray::with_capacity(9, 4).unwrap();
        assert_eq!(oa2.runs(), 9);
    }

    #[test]
    fn k_zero_rejected() {
        assert!(matches!(
            OrthogonalArray::rao_hamming(0),
            Err(DoeError::InvalidParameter(_))
        ));
    }

    #[test]
    fn huge_k_rejected() {
        assert!(matches!(
            OrthogonalArray::rao_hamming(13),
            Err(DoeError::InvalidParameter(_))
        ));
    }

    #[test]
    fn all_rows_distinct_for_k5_first_13_columns() {
        // The mapping run -> first 13 levels need not be injective in
        // general, but for the Rao-Hamming array with the identity basis
        // vectors among the first columns it is; the OTA sampler relies on
        // distinct design points.
        let oa = OrthogonalArray::rao_hamming(5).unwrap();
        let mut rows: Vec<Vec<u8>> = (0..oa.runs())
            .map(|r| oa.run_levels(r)[..13].to_vec())
            .collect();
        rows.sort();
        rows.dedup();
        assert_eq!(rows.len(), 243);
    }

    #[test]
    fn strength_check_rejects_bad_columns() {
        let oa = OrthogonalArray::rao_hamming(2).unwrap();
        assert!(!oa.verify_strength_two(&[0, 99]));
        assert!(!oa.verify_balance(99));
    }
}
