use serde::{Deserialize, Serialize};

/// Structure-of-arrays design-point storage: one contiguous `f64` slice per
/// design *variable* rather than per design *point*.
///
/// The row-major `&[Vec<f64>]` layout of [`Dataset`](crate::Dataset) is the
/// natural shape for building tables, but the modeling hot loops consume
/// points the other way around: a basis function is evaluated for *every*
/// point at once, walking one variable column at a time. `PointMatrix` is
/// that transposed, cache-friendly view — `var(j)` yields all `N` values of
/// variable `j` as one contiguous slice, which is what the compiled tape
/// evaluator in `caffeine-core` streams over.
///
/// # Example
///
/// ```
/// use caffeine_doe::PointMatrix;
///
/// let pm = PointMatrix::from_rows(&[vec![1.0, 10.0], vec![2.0, 20.0]]);
/// assert_eq!(pm.n_points(), 2);
/// assert_eq!(pm.n_vars(), 2);
/// assert_eq!(pm.var(1), &[10.0, 20.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointMatrix {
    n_points: usize,
    n_vars: usize,
    /// Column-major values: `data[j * n_points + t]` is variable `j` of
    /// point `t`.
    data: Vec<f64>,
}

impl PointMatrix {
    /// Transposes row-major design points into column-major storage.
    ///
    /// An empty slice yields a `0 × 0` matrix.
    ///
    /// # Panics
    ///
    /// Panics when the rows have differing lengths. Use
    /// [`PointMatrix::try_from_rows`] for untrusted input.
    pub fn from_rows(points: &[Vec<f64>]) -> PointMatrix {
        PointMatrix::try_from_rows(points)
            .unwrap_or_else(|_| panic!("all design points must have the same number of variables"))
    }

    /// Fallible row-major conversion for untrusted input (e.g. a JSON
    /// batch arriving over the network): ragged rows yield an error
    /// naming the offending row instead of panicking.
    ///
    /// # Errors
    ///
    /// [`crate::DoeError::InvalidParameter`] when the rows have differing
    /// lengths.
    pub fn try_from_rows(points: &[Vec<f64>]) -> Result<PointMatrix, crate::DoeError> {
        let n_vars = points.first().map_or(0, Vec::len);
        for (t, p) in points.iter().enumerate() {
            if p.len() != n_vars {
                return Err(crate::DoeError::InvalidParameter(format!(
                    "ragged design points: row 0 has {n_vars} values but row {t} has {}",
                    p.len()
                )));
            }
        }
        PointMatrix::try_from_row_major(points.len(), n_vars, &points.concat())
    }

    /// Transposes a flat row-major buffer — `values[t * n_vars + j]` is
    /// variable `j` of point `t` — into column-major storage. This is the
    /// layout a streaming decoder appends into without building one `Vec`
    /// per row. `n_points` is explicit so zero-width points still count.
    ///
    /// # Errors
    ///
    /// [`crate::DoeError::InvalidParameter`] when `values` does not hold
    /// exactly `n_points * n_vars` numbers.
    pub fn try_from_row_major(
        n_points: usize,
        n_vars: usize,
        values: &[f64],
    ) -> Result<PointMatrix, crate::DoeError> {
        if n_points.checked_mul(n_vars) != Some(values.len()) {
            return Err(crate::DoeError::InvalidParameter(format!(
                "{} values cannot fill {n_points} points of {n_vars} variables",
                values.len()
            )));
        }
        let mut data = vec![0.0; values.len()];
        if n_vars > 0 {
            for (t, row) in values.chunks_exact(n_vars).enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    data[j * n_points + t] = v;
                }
            }
        }
        Ok(PointMatrix {
            n_points,
            n_vars,
            data,
        })
    }

    /// Number of design points `N`.
    #[inline]
    pub fn n_points(&self) -> usize {
        self.n_points
    }

    /// Number of design variables `d`.
    #[inline]
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// All `N` values of variable `j`, contiguous.
    ///
    /// # Panics
    ///
    /// Panics when `j >= n_vars`.
    #[inline]
    pub fn var(&self, j: usize) -> &[f64] {
        assert!(j < self.n_vars, "variable index {j} out of range");
        &self.data[j * self.n_points..(j + 1) * self.n_points]
    }

    /// Copies point `t` into `out` (one value per variable).
    ///
    /// # Panics
    ///
    /// Panics when `t >= n_points` or `out.len() != n_vars`.
    pub fn point_into(&self, t: usize, out: &mut [f64]) {
        assert!(t < self.n_points, "point index {t} out of range");
        assert_eq!(out.len(), self.n_vars, "output length mismatch");
        for (j, o) in out.iter_mut().enumerate() {
            *o = self.data[j * self.n_points + t];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transposes_rows_into_columns() {
        let pm = PointMatrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
            vec![10.0, 11.0, 12.0],
        ]);
        assert_eq!(pm.n_points(), 4);
        assert_eq!(pm.n_vars(), 3);
        assert_eq!(pm.var(0), &[1.0, 4.0, 7.0, 10.0]);
        assert_eq!(pm.var(2), &[3.0, 6.0, 9.0, 12.0]);
    }

    #[test]
    fn empty_input_is_empty_matrix() {
        let pm = PointMatrix::from_rows(&[]);
        assert_eq!(pm.n_points(), 0);
        assert_eq!(pm.n_vars(), 0);
    }

    #[test]
    #[should_panic(expected = "same number of variables")]
    fn ragged_rows_rejected() {
        let _ = PointMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn try_from_rows_reports_the_offending_row() {
        let err = PointMatrix::try_from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(err.to_string().contains("row 1"), "{err}");
        let ok = PointMatrix::try_from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(
            ok,
            PointMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])
        );
    }

    #[test]
    fn row_major_buffer_matches_rows() {
        let rows = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let pm = PointMatrix::try_from_row_major(2, 3, &rows.concat()).unwrap();
        assert_eq!(pm, PointMatrix::from_rows(&rows));
        // Zero-width points keep their count.
        let empty_rows = PointMatrix::try_from_row_major(4, 0, &[]).unwrap();
        assert_eq!(empty_rows.n_points(), 4);
        assert_eq!(
            empty_rows,
            PointMatrix::from_rows(&[vec![], vec![], vec![], vec![]])
        );
        let err = PointMatrix::try_from_row_major(2, 3, &[1.0; 5]).unwrap_err();
        assert!(err.to_string().contains("5 values"), "{err}");
        assert!(PointMatrix::try_from_row_major(usize::MAX, 2, &[]).is_err());
    }

    #[test]
    fn point_into_reconstructs_rows() {
        let rows = vec![vec![1.5, -2.0], vec![0.25, 8.0]];
        let pm = PointMatrix::from_rows(&rows);
        let mut buf = [0.0; 2];
        for (t, row) in rows.iter().enumerate() {
            pm.point_into(t, &mut buf);
            assert_eq!(&buf[..], row.as_slice());
        }
    }

    #[test]
    fn serde_round_trip() {
        let pm = PointMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let json = serde_json::to_string(&pm).unwrap();
        let back: PointMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(pm, back);
    }
}
