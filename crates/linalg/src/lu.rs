use crate::{LinalgError, Matrix, Scalar};

/// LU factorization with partial (row) pivoting, `P·A = L·U`.
///
/// Generic over the [`Scalar`] field so the circuit simulator can reuse the
/// same kernel for real DC systems and complex AC systems.
///
/// # Example
///
/// ```
/// use caffeine_linalg::{Lu, Matrix};
///
/// # fn main() -> Result<(), caffeine_linalg::LinalgError> {
/// let a: Matrix = Matrix::from_rows(&[vec![0.0, 2.0], vec![1.0, 1.0]]);
/// let lu = Lu::factor(a)?;
/// let x = lu.solve(&[2.0, 2.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu<T = f64> {
    /// Packed LU factors (unit lower triangle implicit).
    lu: Matrix<T>,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation, `+1` or `-1` (used for determinants).
    perm_sign: f64,
}

impl<T: Scalar> Lu<T> {
    /// Factors a square matrix in its own storage: the factors replace
    /// the entries. A caller that still needs the matrix factors a clone;
    /// the circuit simulator's freshly assembled MNA systems and the ridge
    /// fallback's Gram matrix are not needed again.
    ///
    /// The elimination walks flat row slices and divides each column by
    /// its pivot through [`Scalar::prepare_divisor`], computed once per
    /// column. Every entry goes through the same floating-point operations
    /// in the same order as an element-by-element Doolittle loop, so the
    /// factors are that loop's bits exactly.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if the matrix is not square.
    /// * [`LinalgError::Singular`] if a pivot is exactly zero or numerically
    ///   negligible relative to the matrix scale.
    pub fn factor(mut lu: Matrix<T>) -> Result<Self, LinalgError> {
        if lu.rows() != lu.cols() {
            return Err(LinalgError::DimensionMismatch(format!(
                "LU requires a square matrix, got {}x{}",
                lu.rows(),
                lu.cols()
            )));
        }
        let n = lu.rows();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let scale = lu.max_abs().max(f64::MIN_POSITIVE);
        let tiny = scale * 1e-300_f64.max(f64::EPSILON * 1e-4);
        let data = lu.as_mut_slice();

        for k in 0..n {
            // Partial pivoting: pick the largest remaining entry in column k.
            let mut pivot_row = k;
            let mut pivot_mag = data[k * n + k].modulus();
            let column = data[k * n + k..].iter().step_by(n);
            for (i, v) in column.enumerate().skip(1) {
                let m = v.modulus();
                if m > pivot_mag {
                    pivot_mag = m;
                    pivot_row = k + i;
                }
            }
            if pivot_mag <= tiny || !pivot_mag.is_finite() {
                return Err(LinalgError::Singular { pivot: k });
            }
            let (above, below) = data.split_at_mut((k + 1) * n);
            let row_k = &mut above[k * n..];
            if pivot_row != k {
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
                let off = (pivot_row - k - 1) * n;
                row_k.swap_with_slice(&mut below[off..off + n]);
            }
            let divisor = row_k[k].prepare_divisor();
            let u = &row_k[k + 1..];
            for row in below.chunks_exact_mut(n) {
                let factor = row[k].div_prepared(divisor);
                row[k] = factor;
                if factor == T::zero() {
                    continue;
                }
                for (x, &ukj) in row[k + 1..].iter_mut().zip(u) {
                    *x -= factor * ukj;
                }
            }
        }
        Ok(Lu {
            lu,
            perm,
            perm_sign,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "rhs length {} does not match system dimension {}",
                b.len(),
                n
            )));
        }
        let lu = self.lu.as_slice();
        // Apply permutation, then forward substitution (L has unit diagonal).
        let mut x: Vec<T> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let (solved, rest) = x.split_at_mut(i);
            let mut acc = rest[0];
            for (&lij, &xj) in lu[i * n..i * n + i].iter().zip(solved.iter()) {
                acc -= lij * xj;
            }
            rest[0] = acc;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let (head, solved) = x.split_at_mut(i + 1);
            let row = &lu[i * n..(i + 1) * n];
            let mut acc = head[i];
            for (&uij, &xj) in row[i + 1..].iter().zip(solved.iter()) {
                acc -= uij * xj;
            }
            head[i] = acc / row[i];
        }
        Ok(x)
    }

    /// Determinant of the original matrix.
    // lint: allow(test-only-api) — proptests check det(A) = det(Aᵀ); lu_oracle pins its bits
    pub fn det(&self) -> T {
        let n = self.dim();
        let lu = self.lu.as_slice();
        let mut d = T::from_f64(self.perm_sign);
        for i in 0..n {
            d *= lu[i * n + i];
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    fn solve_square<T: Scalar>(a: &Matrix<T>, b: &[T]) -> Result<Vec<T>, LinalgError> {
        Lu::factor(a.clone())?.solve(b)
    }

    fn residual_inf_norm(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec(x).unwrap();
        ax.iter()
            .zip(b.iter())
            .map(|(l, r)| (l - r).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn solves_well_conditioned_system() {
        let a: Matrix = Matrix::from_rows(&[
            vec![4.0, -2.0, 1.0],
            vec![3.0, 6.0, -4.0],
            vec![2.0, 1.0, 8.0],
        ]);
        let b = vec![1.0, 2.0, 3.0];
        let x = solve_square(&a, &b).unwrap();
        assert!(residual_inf_norm(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a: Matrix = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = solve_square(&a, &[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a: Matrix = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(matches!(Lu::factor(a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn non_square_is_rejected() {
        let a: Matrix = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::factor(a),
            Err(LinalgError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn determinant_matches_cofactor_expansion() {
        let a: Matrix = Matrix::from_rows(&[vec![3.0, 8.0], vec![4.0, 6.0]]);
        let lu = Lu::factor(a).unwrap();
        assert!((lu.det() - (3.0 * 6.0 - 8.0 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn determinant_tracks_permutation_sign() {
        let a: Matrix = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let lu = Lu::factor(a).unwrap();
        assert!((lu.det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn complex_system_round_trips() {
        let j = Complex64::I;
        let one = Complex64::ONE;
        let a = Matrix::from_rows(&[vec![one, j], vec![-j, one + j]]);
        let x_true = vec![Complex64::new(1.0, 2.0), Complex64::new(-0.5, 0.25)];
        let b = a.matvec(&x_true).unwrap();
        let x = solve_square(&a, &b).unwrap();
        for (xs, xt) in x.iter().zip(x_true.iter()) {
            assert!((*xs - *xt).abs() < 1e-12);
        }
    }

    #[test]
    fn rhs_length_mismatch_errors() {
        let a: Matrix = Matrix::identity(3);
        let lu = Lu::factor(a).unwrap();
        assert!(matches!(
            lu.solve(&[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn random_systems_have_small_residuals() {
        // Deterministic pseudo-random fill via a simple LCG so the test
        // stays reproducible without pulling `rand` into unit scope.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for n in [1usize, 2, 5, 10, 20] {
            let a: Matrix = Matrix::from_fn(n, n, |i, j| next() + if i == j { 4.0 } else { 0.0 });
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let x = solve_square(&a, &b).unwrap();
            assert!(residual_inf_norm(&a, &x, &b) < 1e-9, "n={n}");
        }
    }
}
