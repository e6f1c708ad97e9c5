use serde::{Deserialize, Serialize};

use caffeine_linalg::Matrix;

use crate::DoeError;

/// A `{x(t), y(t)}` sample table: `N` design points in `d` variables with
/// one scalar performance value each.
///
/// This is the interface contract of the whole reproduction: the circuit
/// substrate *produces* datasets, and both CAFFEINE and the posynomial
/// baseline *consume* them — exactly the "SPICE simulation data as input"
/// flow of the paper.
///
/// # Example
///
/// ```
/// use caffeine_doe::Dataset;
///
/// let ds = Dataset::new(
///     vec!["id1".into(), "vgs2".into()],
///     vec![vec![1e-5, 0.9], vec![2e-5, 1.0]],
///     vec![57.0, 55.0],
/// ).unwrap();
/// assert_eq!(ds.n_samples(), 2);
/// assert_eq!(ds.n_vars(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    names: Vec<String>,
    /// Row-major design points, `n_samples × n_vars`.
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
}

impl Dataset {
    /// Builds a dataset from variable names, design points, and targets.
    ///
    /// # Errors
    ///
    /// [`DoeError::InvalidParameter`] when the row lengths disagree with the
    /// variable count or `x.len() != y.len()`.
    pub fn new(names: Vec<String>, x: Vec<Vec<f64>>, y: Vec<f64>) -> Result<Self, DoeError> {
        if x.len() != y.len() {
            return Err(DoeError::InvalidParameter(format!(
                "{} design points but {} targets",
                x.len(),
                y.len()
            )));
        }
        if x.iter().any(|row| row.len() != names.len()) {
            return Err(DoeError::InvalidParameter(
                "every design point must have one value per variable".into(),
            ));
        }
        Ok(Dataset { names, x, y })
    }

    /// Number of samples `N`.
    pub fn n_samples(&self) -> usize {
        self.y.len()
    }

    /// Number of design variables `d`.
    pub fn n_vars(&self) -> usize {
        self.names.len()
    }

    /// Variable names, in column order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Design point `t` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `t >= n_samples`.
    pub fn point(&self, t: usize) -> &[f64] {
        &self.x[t]
    }

    /// All design points.
    pub fn points(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// The target values.
    pub fn targets(&self) -> &[f64] {
        &self.y
    }

    /// The design matrix as a dense `n_samples × n_vars` [`Matrix`].
    pub fn design_matrix(&self) -> Matrix {
        Matrix::from_rows(&self.x)
    }

    /// The design points transposed into column-major
    /// [`PointMatrix`](crate::PointMatrix) storage — the layout the batch
    /// expression evaluator consumes.
    pub fn point_matrix(&self) -> crate::PointMatrix {
        crate::PointMatrix::from_rows(&self.x)
    }

    /// Removes samples whose target is non-finite (the paper notes that
    /// "some of [the simulations] did not converge"; those points simply
    /// drop out of the table). Returns the number of samples removed.
    pub fn drop_nonfinite(&mut self) -> usize {
        let before = self.y.len();
        let keep: Vec<bool> = self
            .y
            .iter()
            .zip(self.x.iter())
            .map(|(y, row)| y.is_finite() && row.iter().all(|v| v.is_finite()))
            .collect();
        let mut i = 0;
        self.x.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
        let mut i = 0;
        self.y.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
        before - self.y.len()
    }

    /// Returns a copy with targets transformed by `f` (the paper log-scales
    /// `fu` with `log10` before learning).
    pub fn map_targets(&self, f: impl Fn(f64) -> f64) -> Dataset {
        Dataset {
            names: self.names.clone(),
            x: self.x.clone(),
            y: self.y.iter().map(|&v| f(v)).collect(),
        }
    }
}

/// A train/test pair over the same variables — the paper's
/// `dx = 0.10` (training) / `dx = 0.03` (testing) split.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitDataset {
    /// Training table (hypercube shell, `dx = 0.10` in the paper).
    pub train: Dataset,
    /// Testing table (hypercube interior, `dx = 0.03`).
    pub test: Dataset,
}

impl SplitDataset {
    /// Pairs a training and testing dataset.
    ///
    /// # Errors
    ///
    /// [`DoeError::InvalidParameter`] when the variable names differ: a
    /// model fit on one table must be evaluable on the other.
    pub fn new(train: Dataset, test: Dataset) -> Result<Self, DoeError> {
        if train.names() != test.names() {
            return Err(DoeError::InvalidParameter(
                "train and test datasets must share variable names".into(),
            ));
        }
        Ok(SplitDataset { train, test })
    }

    /// Applies the same target transform to both halves.
    pub fn map_targets(&self, f: impl Fn(f64) -> f64 + Copy) -> SplitDataset {
        SplitDataset {
            train: self.train.map_targets(f),
            test: self.test.map_targets(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Dataset {
        Dataset::new(
            vec!["a".into(), "b".into()],
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
            vec![10.0, 20.0, 30.0],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let ds = demo();
        assert_eq!(ds.n_samples(), 3);
        assert_eq!(ds.n_vars(), 2);
        assert_eq!(ds.point(1), &[3.0, 4.0]);
        assert_eq!(ds.targets(), &[10.0, 20.0, 30.0]);
    }

    #[test]
    fn length_mismatches_rejected() {
        assert!(Dataset::new(vec!["a".into()], vec![vec![1.0]], vec![1.0, 2.0]).is_err());
        assert!(Dataset::new(vec!["a".into()], vec![vec![1.0, 2.0]], vec![1.0]).is_err());
    }

    #[test]
    fn drop_nonfinite_removes_diverged_samples() {
        let mut ds = Dataset::new(
            vec!["a".into()],
            vec![vec![1.0], vec![2.0], vec![3.0]],
            vec![1.0, f64::NAN, 3.0],
        )
        .unwrap();
        let removed = ds.drop_nonfinite();
        assert_eq!(removed, 1);
        assert_eq!(ds.n_samples(), 2);
        assert_eq!(ds.targets(), &[1.0, 3.0]);
        assert_eq!(ds.points().len(), 2);
    }

    #[test]
    fn drop_nonfinite_checks_design_values_too() {
        let mut ds = Dataset::new(
            vec!["a".into()],
            vec![vec![f64::INFINITY], vec![2.0]],
            vec![1.0, 2.0],
        )
        .unwrap();
        assert_eq!(ds.drop_nonfinite(), 1);
        assert_eq!(ds.n_samples(), 1);
    }

    #[test]
    fn map_targets_applies_function() {
        let ds = demo().map_targets(|y| y / 10.0);
        assert_eq!(ds.targets(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn design_matrix_matches_points() {
        let m = demo().design_matrix();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(2, 1)], 6.0);
    }

    #[test]
    fn split_requires_matching_names() {
        let tr = demo();
        let te = Dataset::new(
            vec!["a".into(), "c".into()],
            vec![vec![1.0, 2.0]],
            vec![1.0],
        )
        .unwrap();
        assert!(SplitDataset::new(tr.clone(), te).is_err());
        let ok = SplitDataset::new(tr.clone(), tr).unwrap();
        assert_eq!(ok.train.n_samples(), 3);
    }

    #[test]
    fn split_map_targets_hits_both_halves() {
        let s = SplitDataset::new(demo(), demo()).unwrap();
        let s2 = s.map_targets(|y| y + 1.0);
        assert_eq!(s2.train.targets()[0], 11.0);
        assert_eq!(s2.test.targets()[0], 11.0);
    }
}
