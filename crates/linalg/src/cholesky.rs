use crate::{LinalgError, Matrix};

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite matrix.
///
/// Used for fast normal-equation solves where the Gram matrix is known to be
/// well conditioned (e.g. the posynomial baseline's term library after
/// pruning), and as a positive-definiteness oracle in tests.
///
/// # Example
///
/// ```
/// use caffeine_linalg::{Cholesky, Matrix};
///
/// # fn main() -> Result<(), caffeine_linalg::LinalgError> {
/// let a: Matrix = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
/// let ch = Cholesky::factor(&a)?;
/// let x = ch.solve(&[8.0, 7.0])?;
/// assert!((x[0] - 1.25).abs() < 1e-12 && (x[1] - 1.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper part is
    /// the caller's responsibility.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a non-positive pivot is hit.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::DimensionMismatch(format!(
                "Cholesky requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if !(d > 0.0) || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { column: j });
            }
            let djj = d.sqrt();
            l[(j, j)] = djj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / djj;
            }
        }
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "rhs length {} does not match system dimension {}",
                b.len(),
                n
            )));
        }
        // Forward: L y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= self.l[(i, j)] * y[j];
            }
            y[i] = acc / self.l[(i, i)];
        }
        // Backward: Lᵀ x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.l[(j, i)] * x[j];
            }
            x[i] = acc / self.l[(i, i)];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_reconstructs_spd_matrix() {
        let a: Matrix = Matrix::from_rows(&[
            vec![6.0, 3.0, 4.0],
            vec![3.0, 6.0, 5.0],
            vec![4.0, 5.0, 10.0],
        ]);
        let ch = Cholesky::factor(&a).unwrap();
        let llt = ch.l().matmul(&ch.l().transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((llt[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_matches_lu() {
        let a: Matrix = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let b = vec![1.0, 2.0];
        let x_ch = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        let x_lu = crate::lu::solve_square(&a, &b).unwrap();
        for (u, v) in x_ch.iter().zip(x_lu.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a: Matrix = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a: Matrix = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn rhs_mismatch_errors() {
        let a: Matrix = Matrix::identity(2);
        let ch = Cholesky::factor(&a).unwrap();
        assert!(matches!(
            ch.solve(&[1.0]),
            Err(LinalgError::DimensionMismatch(_))
        ));
    }
}
