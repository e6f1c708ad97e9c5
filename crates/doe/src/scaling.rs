use crate::{DoeError, OrthogonalArray};

/// Maps 3-level design codes onto physical design-variable values around a
/// nominal point.
///
/// The paper samples "with scaled dx = 0.1": each variable takes the values
/// `nominal · (1 − dx)`, `nominal`, `nominal · (1 + dx)` for levels 0, 1, 2.
/// Training data uses `dx = 0.10` (the hypercube's extreme shell) and test
/// data `dx = 0.03` (interior points), which is what makes the paper's
/// test-error-below-train-error observation legitimate interpolation.
///
/// # Example
///
/// ```
/// use caffeine_doe::{OrthogonalArray, ScaledHypercube};
///
/// let oa = OrthogonalArray::rao_hamming(2).unwrap(); // 4 columns
/// let cube = ScaledHypercube::relative(&[1.0e-5, 2.0], 0.1).unwrap();
/// let x = cube.map_run(&oa.run_levels(0)[..2], 3).unwrap();
/// assert_eq!(x.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledHypercube {
    nominal: Vec<f64>,
    /// Per-variable half-range in *absolute* units.
    half_range: Vec<f64>,
}

impl ScaledHypercube {
    /// Creates a hypercube with relative half-range `dx` around `nominal`
    /// (level 0 ⇒ `v·(1−dx)`, level 2 ⇒ `v·(1+dx)`).
    ///
    /// # Errors
    ///
    /// * [`DoeError::EmptyDesign`] for an empty nominal vector.
    /// * [`DoeError::InvalidParameter`] for non-finite nominals, `dx ≤ 0`,
    ///   or `dx ≥ 1` (which would allow sign flips of the variables).
    pub fn relative(nominal: &[f64], dx: f64) -> Result<Self, DoeError> {
        if nominal.is_empty() {
            return Err(DoeError::EmptyDesign);
        }
        if !nominal.iter().all(|v| v.is_finite()) {
            return Err(DoeError::InvalidParameter(
                "nominal point contains non-finite values".into(),
            ));
        }
        if !(dx > 0.0 && dx < 1.0) {
            return Err(DoeError::InvalidParameter(format!(
                "relative dx must be in (0, 1), got {dx}"
            )));
        }
        let half_range = nominal.iter().map(|v| v.abs() * dx).collect();
        Ok(ScaledHypercube {
            nominal: nominal.to_vec(),
            half_range,
        })
    }

    /// Dimensionality of the design space.
    pub fn dim(&self) -> usize {
        self.nominal.len()
    }

    /// The nominal design point.
    pub fn nominal(&self) -> &[f64] {
        &self.nominal
    }

    /// Maps one run's level codes to physical values; levels must be in
    /// `{0, .., n_levels−1}` and are spread symmetrically over
    /// `[nominal − half, nominal + half]`.
    ///
    /// # Errors
    ///
    /// [`DoeError::InvalidParameter`] on dimension mismatch, `n_levels < 2`,
    /// or an out-of-range level code.
    pub fn map_run(&self, levels: &[u8], n_levels: usize) -> Result<Vec<f64>, DoeError> {
        if levels.len() != self.dim() {
            return Err(DoeError::InvalidParameter(format!(
                "run has {} levels but the cube is {}-dimensional",
                levels.len(),
                self.dim()
            )));
        }
        if n_levels < 2 {
            return Err(DoeError::InvalidParameter(
                "n_levels must be at least 2".into(),
            ));
        }
        let mut x = Vec::with_capacity(self.dim());
        for (i, &lvl) in levels.iter().enumerate() {
            if lvl as usize >= n_levels {
                return Err(DoeError::InvalidParameter(format!(
                    "level {lvl} out of range for {n_levels} levels"
                )));
            }
            // Map level to [-1, 1].
            let t = 2.0 * lvl as f64 / (n_levels as f64 - 1.0) - 1.0;
            x.push(self.nominal[i] + t * self.half_range[i]);
        }
        Ok(x)
    }

    /// Maps an entire orthogonal array (first `dim` columns) to a matrix of
    /// physical design points.
    ///
    /// # Errors
    ///
    /// * [`DoeError::TooManyColumns`] if the array has fewer columns than
    ///   the cube has dimensions.
    /// * Propagates [`ScaledHypercube::map_run`] errors.
    pub fn map_array(&self, oa: &OrthogonalArray) -> Result<Vec<Vec<f64>>, DoeError> {
        if oa.columns() < self.dim() {
            return Err(DoeError::TooManyColumns {
                requested: self.dim(),
                available: oa.columns(),
            });
        }
        (0..oa.runs())
            .map(|r| self.map_run(&oa.run_levels(r)[..self.dim()], 3))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_levels_land_on_expected_values() {
        let cube = ScaledHypercube::relative(&[10.0], 0.1).unwrap();
        assert_eq!(cube.map_run(&[0], 3).unwrap(), vec![9.0]);
        assert_eq!(cube.map_run(&[1], 3).unwrap(), vec![10.0]);
        assert_eq!(cube.map_run(&[2], 3).unwrap(), vec![11.0]);
    }

    #[test]
    fn negative_nominal_keeps_sign_ordering() {
        let cube = ScaledHypercube::relative(&[-2.0], 0.1).unwrap();
        // half-range uses |nominal| so level 0 < level 2 numerically.
        assert_eq!(cube.map_run(&[0], 3).unwrap(), vec![-2.2]);
        assert_eq!(cube.map_run(&[2], 3).unwrap(), vec![-1.8]);
    }

    #[test]
    fn map_array_covers_all_runs() {
        let oa = OrthogonalArray::rao_hamming(2).unwrap();
        let cube = ScaledHypercube::relative(&[1.0, 2.0, 3.0, 4.0], 0.03).unwrap();
        let pts = cube.map_array(&oa).unwrap();
        assert_eq!(pts.len(), 9);
        for p in &pts {
            assert_eq!(p.len(), 4);
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(ScaledHypercube::relative(&[], 0.1).is_err());
        assert!(ScaledHypercube::relative(&[1.0], 0.0).is_err());
        assert!(ScaledHypercube::relative(&[1.0], 1.5).is_err());
        assert!(ScaledHypercube::relative(&[f64::NAN], 0.1).is_err());
    }

    #[test]
    fn map_run_validates_levels() {
        let cube = ScaledHypercube::relative(&[1.0], 0.1).unwrap();
        assert!(cube.map_run(&[3], 3).is_err());
        assert!(cube.map_run(&[0, 0], 3).is_err());
        assert!(cube.map_run(&[0], 1).is_err());
    }

    #[test]
    fn five_level_mapping_is_symmetric() {
        let cube = ScaledHypercube::relative(&[100.0], 0.1).unwrap();
        let vals: Vec<f64> = (0..5u8)
            .map(|l| cube.map_run(&[l], 5).unwrap()[0])
            .collect();
        assert_eq!(vals, vec![90.0, 95.0, 100.0, 105.0, 110.0]);
    }
}
