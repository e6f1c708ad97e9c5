use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

use crate::{LinalgError, Scalar};

/// A dense, row-major matrix over a [`Scalar`] field (defaults to `f64`).
///
/// This is the single matrix type used across the workspace: design
/// matrices for regression, MNA matrices for circuit simulation (with
/// `T = Complex64` for AC analysis), and small kernels inside the GP engine.
///
/// # Example
///
/// ```
/// use caffeine_linalg::Matrix;
///
/// let a: Matrix = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let b = a.transpose();
/// assert_eq!(b[(0, 1)], 3.0);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c[(0, 0)], 5.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix<T = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates an `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Reshapes to `rows × cols` and fills with zeros, keeping the
    /// allocation: the storage of factors refactored in place.
    pub(crate) fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, T::zero());
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[Vec<T>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have the same length"
        );
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix from column vectors.
    ///
    /// This is the natural constructor for regression design matrices where
    /// each basis function contributes one column.
    ///
    /// # Panics
    ///
    /// Panics if the columns do not all have the same length.
    pub fn from_columns(cols: &[Vec<T>]) -> Self {
        if cols.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let rows = cols[0].len();
        assert!(
            cols.iter().all(|c| c.len() == rows),
            "all columns must have the same length"
        );
        Matrix::from_fn(rows, cols.len(), |i, j| cols[j][i])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrows the row-major storage: the kernels that factor a
    /// matrix in place walk it as flat rows.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrows row `i` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn column(&self, j: usize) -> Vec<T> {
        assert!(
            j < self.cols,
            "column index {j} out of bounds ({})",
            self.cols
        );
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns a new matrix keeping only the listed columns, in order.
    ///
    /// Used by forward regression to assemble candidate design matrices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_columns(&self, indices: &[usize]) -> Matrix<T> {
        for &j in indices {
            assert!(
                j < self.cols,
                "column index {j} out of bounds ({})",
                self.cols
            );
        }
        Matrix::from_fn(self.rows, indices.len(), |i, k| self[(i, indices[k])])
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix–matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != rhs.rows()`.
    // lint: allow(test-only-api) — linalg's tests rebuild A from its factors to check them
    pub fn matmul(&self, rhs: &Matrix<T>) -> Result<Matrix<T>, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "{}x{} * {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == T::zero() {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, &r) in orow.iter_mut().zip(rrow.iter()) {
                    *o += aik * r;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[T]) -> Result<Vec<T>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "{}x{} * vector of length {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        let mut y = vec![T::zero(); self.rows];
        for i in 0..self.rows {
            let mut acc = T::zero();
            for (a, &xv) in self.row(i).iter().zip(x.iter()) {
                acc += *a * xv;
            }
            y[i] = acc;
        }
        Ok(y)
    }

    /// Conjugate-transposed matrix–vector product `selfᴴ * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.rows()`.
    pub fn conj_t_matvec(&self, x: &[T]) -> Result<Vec<T>, LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "({}x{})^H * vector of length {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        let mut y = vec![T::zero(); self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            for (j, &a) in self.row(i).iter().enumerate() {
                y[j] += a.conj() * xi;
            }
        }
        Ok(y)
    }

    /// Gram matrix `selfᴴ * self` (a `cols × cols` Hermitian matrix).
    pub fn gram(&self) -> Matrix<T> {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.rows {
            let r = self.row(i);
            for j in 0..self.cols {
                let cj = r[j].conj();
                if cj == T::zero() {
                    continue;
                }
                for k in 0..self.cols {
                    g[(j, k)] += cj * r[k];
                }
            }
        }
        g
    }

    /// Elementwise sum with another matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when the shapes differ.
    pub fn add(&self, rhs: &Matrix<T>) -> Result<Matrix<T>, LinalgError> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "{}x{} + {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        Ok(Matrix::from_fn(self.rows, self.cols, |i, j| {
            self[(i, j)] + rhs[(i, j)]
        }))
    }

    /// Scales every entry by `k`.
    pub fn scale(&self, k: T) -> Matrix<T> {
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)] * k)
    }

    /// Maximum entry modulus; zero for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|v| v.modulus()).fold(0.0, f64::max)
    }

    /// `true` when all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite_scalar())
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix<f64> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>12.5e}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn zeros_and_identity() {
        let z: Matrix = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i: Matrix = Matrix::identity(3);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_and_columns_agree() {
        let a: Matrix = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b: Matrix = Matrix::from_columns(&[vec![1.0, 3.0], vec![2.0, 4.0]]);
        assert_eq!(a, b);
    }

    #[test]
    fn matmul_known_product() {
        let a: Matrix = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b: Matrix = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn matmul_dimension_mismatch_errors() {
        let a: Matrix = Matrix::zeros(2, 3);
        let b: Matrix = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn matvec_matches_manual() {
        let a: Matrix = Matrix::from_rows(&[vec![1.0, -1.0], vec![2.0, 0.5]]);
        let y = a.matvec(&[2.0, 4.0]).unwrap();
        assert_eq!(y, vec![-2.0, 6.0]);
    }

    #[test]
    fn transpose_involution() {
        let a: Matrix = Matrix::from_fn(3, 4, |i, j| (i * 10 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gram_is_symmetric_and_psd_diagonal() {
        let a: Matrix = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, -4.0], vec![0.5, 0.0]]);
        let g = a.gram();
        assert_eq!(g.rows(), 2);
        for i in 0..2 {
            assert!(g[(i, i)] >= 0.0);
            for j in 0..2 {
                assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn select_columns_orders_and_subsets() {
        let a: Matrix = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let s = a.select_columns(&[2, 0]);
        assert_eq!(s, Matrix::from_rows(&[vec![3.0, 1.0], vec![6.0, 4.0]]));
    }

    #[test]
    fn complex_matmul_uses_complex_arithmetic() {
        let j = Complex64::I;
        let a = Matrix::from_rows(&[vec![j, Complex64::ZERO], vec![Complex64::ZERO, j]]);
        let sq = a.matmul(&a).unwrap();
        assert_eq!(sq[(0, 0)], Complex64::new(-1.0, 0.0));
    }

    #[test]
    fn conj_t_matvec_conjugates() {
        let j = Complex64::I;
        let a = Matrix::from_rows(&[vec![j]]);
        let y = a.conj_t_matvec(&[Complex64::ONE]).unwrap();
        // conj(j) * 1 = -j
        assert_eq!(y[0], Complex64::new(0.0, -1.0));
    }

    #[test]
    fn norms() {
        let a: Matrix = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, -4.0]]);
        assert_eq!(a.max_abs(), 4.0);
        assert!(a.is_finite());
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn ragged_rows_panic() {
        let _: Matrix = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn display_writes_rows() {
        let a: Matrix = Matrix::identity(2);
        let s = a.to_string();
        assert!(s.lines().count() == 2);
    }
}
