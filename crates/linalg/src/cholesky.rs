use crate::{LinalgError, Matrix};

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite matrix.
///
/// The fitness path's [`crate::GramSolver`] refactors one value in place
/// per fit, on the Jacobi-scaled Gram matrix of each design, and reads
/// the pivot-ratio check as its conditioning test.
///
/// # Example
///
/// ```
/// use caffeine_linalg::{Cholesky, Matrix};
///
/// # fn main() -> Result<(), caffeine_linalg::LinalgError> {
/// let a: Matrix = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
/// let mut ch = Cholesky::default();
/// ch.factor(&a, 0.0)?;
/// let mut x = vec![8.0, 7.0];
/// ch.solve(&mut x)?;
/// assert!((x[0] - 1.25).abs() < 1e-12 && (x[1] - 1.5).abs() < 1e-12);
/// // The second pivot is 3 − 2²/4 = 2, two thirds of its diagonal entry.
/// assert!(ch.factor(&a, 0.7).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix into this value,
    /// reusing its storage.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper part is
    /// the caller's responsibility. Each pivot `d_j` (the square of
    /// `L_jj`) must exceed `min_pivot_ratio · a_jj`; with a ratio of `0.0`
    /// that is plain positive definiteness, and on a unit-diagonal matrix
    /// the ratio bounds the pivots themselves. The pivot ratio falls as
    /// column `j` nears the span of the columns before it, so a positive
    /// ratio rejects ill-conditioned matrices, not only singular ones.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] at the first pivot that is not
    ///   finite or fails the ratio. The previous factor is lost.
    pub fn factor(&mut self, a: &Matrix, min_pivot_ratio: f64) -> Result<(), LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::DimensionMismatch(format!(
                "Cholesky requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let n = a.rows();
        // Only the lower triangle is written, so the upper one stays zero.
        self.l.reset_zeros(n, n);
        let l = &mut self.l;
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if !(d > min_pivot_ratio * a[(j, j)]) || !d.is_finite() {
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
        Ok(())
    }

    /// `L_jj`, the square root of pivot `j` of the last factor.
    pub(crate) fn diagonal(&self, j: usize) -> f64 {
        self.l[(j, j)]
    }

    /// Solves `A·x = b` in place: `b` is overwritten with `x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b`'s length is not
    /// the dimension of the factored matrix.
    pub fn solve(&self, b: &mut [f64]) -> Result<(), LinalgError> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "rhs length {} does not match system dimension {}",
                b.len(),
                n
            )));
        }
        // Forward: L y = b
        for i in 0..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= self.l[(i, j)] * b[j];
            }
            b[i] = acc / self.l[(i, i)];
        }
        // Backward: Lᵀ x = y
        for i in (0..n).rev() {
            let mut acc = b[i];
            for j in (i + 1)..n {
                acc -= self.l[(j, i)] * b[j];
            }
            b[i] = acc / self.l[(i, i)];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn factored(a: &Matrix) -> Result<Cholesky, LinalgError> {
        let mut ch = Cholesky::default();
        ch.factor(a, 0.0)?;
        Ok(ch)
    }

    #[test]
    fn factor_reconstructs_spd_matrix() {
        let a: Matrix = Matrix::from_rows(&[
            vec![6.0, 3.0, 4.0],
            vec![3.0, 6.0, 5.0],
            vec![4.0, 5.0, 10.0],
        ]);
        let ch = factored(&a).unwrap();
        let llt = ch.l.matmul(&ch.l.transpose()).unwrap();
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
        let mut x_ch = b.clone();
        factored(&a).unwrap().solve(&mut x_ch).unwrap();
        let x_lu = crate::Lu::factor(a.clone()).unwrap().solve(&b).unwrap();
        for (u, v) in x_ch.iter().zip(x_lu.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a: Matrix = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(matches!(
            factored(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn pivot_ratio_rejects_near_singular_matrices() {
        // Columns at angle ε: the second pivot is ε² of its diagonal.
        let eps: f64 = 1e-6;
        let c = (1.0 - eps * eps).sqrt();
        let a: Matrix = Matrix::from_rows(&[vec![1.0, c], vec![c, 1.0]]);
        let mut ch = Cholesky::default();
        ch.factor(&a, 0.0).unwrap();
        assert_eq!(
            ch.factor(&a, 1e-10),
            Err(LinalgError::NotPositiveDefinite { column: 1 })
        );
        // The refactored value is reusable at another size.
        ch.factor(&Matrix::identity(3), 1e-10).unwrap();
        let mut x = vec![1.0, 2.0, 3.0];
        ch.solve(&mut x).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn non_square_rejected() {
        let a: Matrix = Matrix::zeros(2, 3);
        assert!(matches!(
            factored(&a),
            Err(LinalgError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn rhs_mismatch_errors() {
        let ch = factored(&Matrix::identity(2)).unwrap();
        assert!(matches!(
            ch.solve(&mut [1.0]),
            Err(LinalgError::DimensionMismatch(_))
        ));
    }
}
