use crate::{LinalgError, Matrix};

/// Householder QR factorization of a real `m × n` matrix with `m ≥ n`.
///
/// The factorization is stored in compact form: the Householder vectors in
/// the lower trapezoid and `R` in the upper triangle. Storage is
/// column-major, so every reflector and every column it updates is one
/// contiguous slice. This is the engine behind [`lstsq`], the
/// least-squares driver that CAFFEINE uses to learn the linear weights of
/// every candidate model, and behind the PRESS leverages in
/// [`crate::press`].
///
/// The fitness hot path keeps one `Qr` per worker and refactors it from
/// borrowed design columns with [`Qr::factor_columns`], so no row-major
/// design matrix is ever assembled. Both entry points run the same
/// kernel, whose arithmetic is fixed: each dot product accumulates in
/// ascending row order, so a factorization is a pure function of the
/// matrix entries.
///
/// # Example
///
/// ```
/// use caffeine_linalg::{Matrix, Qr};
///
/// # fn main() -> Result<(), caffeine_linalg::LinalgError> {
/// let a: Matrix = Matrix::from_rows(&[
///     vec![1.0, 0.0],
///     vec![1.0, 1.0],
///     vec![1.0, 2.0],
/// ]);
/// let qr = Qr::factor(&a)?;
/// let x = qr.solve_lstsq(&[1.0, 3.0, 5.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-10 && (x[1] - 2.0).abs() < 1e-10);
///
/// // The same factorization from borrowed columns, reusing storage.
/// let mut reused = Qr::default();
/// reused.factor_columns(&[&[1.0, 1.0, 1.0], &[0.0, 1.0, 2.0]])?;
/// assert_eq!(reused.solve_lstsq(&[1.0, 3.0, 5.0])?, x);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Qr {
    /// Compact factor storage, column-major (column `k` is
    /// `qr[k·rows .. (k+1)·rows]`): Householder vectors below the
    /// diagonal, `R` on and above it.
    qr: Vec<f64>,
    /// Scalar `beta` of each Householder reflector `H = I - beta v vᵀ`.
    betas: Vec<f64>,
    rows: usize,
    cols: usize,
}

/// How many trailing columns one pass over a reflector updates together.
/// Each column keeps its own dot-product chain (ascending rows), so the
/// grouping changes the speed, never the bits.
const GROUP: usize = 4;

impl Qr {
    /// Factors `a` (requires `rows ≥ cols`).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] when `rows < cols`.
    /// * [`LinalgError::NonFiniteInput`] when `a` has NaN/infinite entries.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        let (m, n) = (a.rows(), a.cols());
        check_shape(m, n)?;
        if !a.is_finite() {
            return Err(LinalgError::NonFiniteInput { argument: "a" });
        }
        let mut qr = Qr {
            qr: Vec::with_capacity(m * n),
            ..Qr::default()
        };
        for j in 0..n {
            qr.qr.extend((0..m).map(|i| a[(i, j)]));
        }
        qr.householder(m, n);
        Ok(qr)
    }

    /// Refactors in place from the columns of `A` (requires every column
    /// to have the same length, at least the column count), reusing this
    /// value's storage. Bit-identical to [`Qr::factor`] on the matrix with
    /// those columns. On error the previous factorization is kept.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] when the columns differ in
    ///   length or are fewer rows than columns.
    /// * [`LinalgError::NonFiniteInput`] when a column has NaN/infinite
    ///   entries.
    pub fn factor_columns(&mut self, columns: &[&[f64]]) -> Result<(), LinalgError> {
        let n = columns.len();
        let m = columns.first().map_or(0, |c| c.len());
        if columns.iter().any(|c| c.len() != m) {
            return Err(LinalgError::DimensionMismatch(
                "QR columns must all have the same length".into(),
            ));
        }
        check_shape(m, n)?;
        if columns.iter().any(|c| c.iter().any(|v| !v.is_finite())) {
            return Err(LinalgError::NonFiniteInput { argument: "a" });
        }
        self.qr.clear();
        for c in columns {
            self.qr.extend_from_slice(c);
        }
        self.householder(m, n);
        Ok(())
    }

    /// The factorization kernel over `self.qr` (an `m × n` column-major
    /// copy of `A`, validated by the caller).
    fn householder(&mut self, m: usize, n: usize) {
        self.rows = m;
        self.cols = n;
        self.betas.clear();
        self.betas.resize(n, 0.0);
        for k in 0..n {
            let (done, trailing) = self.qr.split_at_mut((k + 1) * m);
            let col = &mut done[k * m..];
            // Build the Householder reflector annihilating col[k+1..].
            let mut norm_sq = 0.0;
            for &x in &col[k..] {
                norm_sq += x * x;
            }
            let norm = norm_sq.sqrt();
            if norm == 0.0 {
                continue;
            }
            let alpha = if col[k] >= 0.0 { -norm } else { norm };
            let v0 = col[k] - alpha;
            let (head, v) = col.split_at_mut(k + 1);
            // v = [v0, v…]; beta = 2 / (vᵀv). The vᵀv chain rides along
            // the first pass over the trailing columns; a zero vᵀv leaves
            // every column untouched.
            let mut groups = trailing.chunks_mut(GROUP * m);
            let beta = match groups.next() {
                Some(first) => reflect_group::<true>(first, m, k, v0, v, 0.0),
                None => {
                    let mut vtv = v0 * v0;
                    for &x in v.iter() {
                        vtv += x * x;
                    }
                    (vtv != 0.0).then(|| 2.0 / vtv)
                }
            };
            let Some(beta) = beta else {
                continue;
            };
            for group in groups {
                reflect_group::<false>(group, m, k, v0, v, beta);
            }
            head[k] = alpha;
            // Column k's subdiagonal already holds v[1..]. R owns the
            // diagonal, so v0 is folded away instead of stored: divide
            // v[1..] by v0 and fold v0² into beta, leaving v = [1, …].
            if v0 != 0.0 {
                for x in v.iter_mut() {
                    *x /= v0;
                }
                self.betas[k] = beta * v0 * v0;
            } else {
                self.betas[k] = beta;
            }
        }
    }

    /// Entry `(i, j)` of the compact factor storage.
    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.qr[j * self.rows + i]
    }

    /// Number of rows of the factored matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the factored matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Applies reflector `k` (`H_k = I - beta_k v vᵀ`, `v = [1, …]`) to
    /// `y` in place.
    #[inline]
    fn reflect_vector(&self, k: usize, y: &mut [f64]) {
        let beta = self.betas[k];
        if beta == 0.0 {
            return;
        }
        let v = &self.qr[k * self.rows + k + 1..(k + 1) * self.rows];
        let (head, tail) = y.split_at_mut(k + 1);
        let mut dot = head[k];
        for (&vi, &yi) in v.iter().zip(tail.iter()) {
            dot += vi * yi;
        }
        let s = beta * dot;
        head[k] -= s;
        for (yi, &vi) in tail.iter_mut().zip(v.iter()) {
            *yi -= s * vi;
        }
    }

    /// Applies `Q` to a vector of length `rows`.
    fn apply_q(&self, b: &[f64]) -> Vec<f64> {
        let mut y = b.to_vec();
        for k in (0..self.cols).rev() {
            self.reflect_vector(k, &mut y);
        }
        y
    }

    /// The upper-triangular factor `R` (the leading `cols × cols` block).
    pub fn r(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.cols, |i, j| {
            if j >= i {
                self.at(i, j)
            } else {
                0.0
            }
        })
    }

    /// Reconstructs the thin `Q` factor (`rows × cols`, orthonormal columns).
    pub fn thin_q(&self) -> Matrix {
        let mut q = Matrix::zeros(self.rows, self.cols);
        for j in 0..self.cols {
            let mut e = vec![0.0; self.rows];
            e[j] = 1.0;
            let col = self.apply_q(&e);
            for i in 0..self.rows {
                q[(i, j)] = col[i];
            }
        }
        q
    }

    /// Largest absolute diagonal entry of `R`.
    fn max_diag(&self) -> f64 {
        (0..self.cols)
            .map(|i| self.at(i, i).abs())
            .fold(0.0, f64::max)
    }

    /// Estimated rank of `R` using a relative diagonal threshold.
    pub fn rank(&self, rel_tol: f64) -> usize {
        let max_diag = self.max_diag();
        if max_diag == 0.0 {
            return 0;
        }
        (0..self.cols)
            .filter(|&i| self.at(i, i).abs() > rel_tol * max_diag)
            .count()
    }

    /// Solves the least-squares problem `min ‖A·x − b‖₂`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `b.len() != rows`.
    /// * [`LinalgError::Singular`] if `R` is numerically rank deficient.
    /// * [`LinalgError::NonFiniteInput`] if `b` has non-finite entries.
    pub fn solve_lstsq(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut y = b.to_vec();
        self.solve_lstsq_in_place(&mut y)
    }

    /// [`Qr::solve_lstsq`] without the right-hand-side copy: `b` is
    /// overwritten with `Qᵀb` (when it passes validation) and the solution
    /// is returned.
    ///
    /// # Errors
    ///
    /// As [`Qr::solve_lstsq`].
    pub fn solve_lstsq_in_place(&self, b: &mut [f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "rhs length {} does not match row count {}",
                b.len(),
                self.rows
            )));
        }
        if b.iter().any(|v| !v.is_finite()) {
            return Err(LinalgError::NonFiniteInput { argument: "b" });
        }
        for k in 0..self.cols {
            self.reflect_vector(k, b);
        }
        let n = self.cols;
        let tol = self.max_diag() * (self.rows as f64) * f64::EPSILON;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = b[i];
            for j in (i + 1)..n {
                acc -= self.at(i, j) * x[j];
            }
            let d = self.at(i, i);
            if d.abs() <= tol {
                return Err(LinalgError::Singular { pivot: i });
            }
            x[i] = acc / d;
        }
        Ok(x)
    }
}

/// The shape guard shared by both factor entry points.
fn check_shape(m: usize, n: usize) -> Result<(), LinalgError> {
    if m < n {
        return Err(LinalgError::DimensionMismatch(format!(
            "QR least squares requires rows >= cols, got {m}x{n}"
        )));
    }
    Ok(())
}

/// Applies reflector `k` (`v = [v0, v…]`) to the 1 to [`GROUP`] adjacent
/// columns stored in `group` (column-major). With `FIRST`, the pass also
/// accumulates `vᵀv` and derives `beta = 2 / vᵀv` from it, returning
/// `None` without touching a column when `vᵀv` is zero; otherwise `beta`
/// is the one passed in.
fn reflect_group<const FIRST: bool>(
    group: &mut [f64],
    m: usize,
    k: usize,
    v0: f64,
    v: &[f64],
    beta: f64,
) -> Option<f64> {
    match group.len() / m {
        4 => reflect::<4, FIRST>(group, m, k, v0, v, beta),
        3 => reflect::<3, FIRST>(group, m, k, v0, v, beta),
        2 => reflect::<2, FIRST>(group, m, k, v0, v, beta),
        _ => reflect::<1, FIRST>(group, m, k, v0, v, beta),
    }
}

/// [`reflect_group`] for exactly `G` columns.
///
/// The dot products of all `G` columns (and, with `FIRST`, `vᵀv`) are
/// accumulated in one pass over `v`; each chain keeps its own order: a
/// column's starts at `v0 · a_kj` and adds `v_i · a_ij` in ascending row
/// order, `vᵀv` starts at `v0²` and adds `v_i²` likewise.
#[inline]
fn reflect<const G: usize, const FIRST: bool>(
    group: &mut [f64],
    m: usize,
    k: usize,
    v0: f64,
    v: &[f64],
    beta: f64,
) -> Option<f64> {
    let mut split = group.chunks_exact_mut(m);
    let mut cols: [&mut [f64]; G] = std::array::from_fn(|_| {
        let col = split.next().expect("group holds G columns");
        &mut col[k..]
    });
    let mut dots: [f64; G] = std::array::from_fn(|c| v0 * cols[c][0]);
    let mut vtv = v0 * v0;
    {
        let below: [&[f64]; G] = std::array::from_fn(|c| &cols[c][1..=v.len()]);
        for (i, &vi) in v.iter().enumerate() {
            if FIRST {
                vtv += vi * vi;
            }
            for c in 0..G {
                dots[c] += vi * below[c][i];
            }
        }
    }
    let beta = if FIRST {
        if vtv == 0.0 {
            return None;
        }
        2.0 / vtv
    } else {
        beta
    };
    for (col, dot) in cols.iter_mut().zip(dots) {
        let s = beta * dot;
        col[0] -= s * v0;
        for (x, &vi) in col[1..].iter_mut().zip(v.iter()) {
            *x -= s * vi;
        }
    }
    Some(beta)
}

/// Solves the dense least-squares problem `min ‖A·x − b‖₂` via Householder QR.
///
/// This is the linear-learning kernel of CAFFEINE: `A`'s columns are the
/// evaluated basis functions (plus the constant column) and `b` is the
/// simulated circuit performance.
///
/// # Errors
///
/// See [`Qr::factor`] and [`Qr::solve_lstsq`]. In particular a rank-deficient
/// design matrix yields [`LinalgError::Singular`]; callers that must always
/// produce a model should fall back to [`lstsq_ridge`].
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    Qr::factor(a)?.solve_lstsq(b)
}

/// Ridge-regularized least squares: solves `(AᵀA + λI)·x = Aᵀb`.
///
/// Used as the fallback when a candidate model's basis functions are
/// collinear (which genetic search produces routinely). The small ridge
/// `lambda` keeps the weights bounded without meaningfully changing
/// well-posed solutions.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] on incompatible shapes.
/// * [`LinalgError::NonFiniteInput`] on NaN/infinite input.
/// * [`LinalgError::Singular`] only if the regularized normal matrix is
///   still singular (requires `lambda = 0` and exact collinearity).
pub fn lstsq_ridge(a: &Matrix, b: &[f64], lambda: f64) -> Result<Vec<f64>, LinalgError> {
    if b.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch(format!(
            "rhs length {} does not match row count {}",
            b.len(),
            a.rows()
        )));
    }
    if !a.is_finite() {
        return Err(LinalgError::NonFiniteInput { argument: "a" });
    }
    if b.iter().any(|v| !v.is_finite()) {
        return Err(LinalgError::NonFiniteInput { argument: "b" });
    }
    ridge_solve(a.gram(), &a.conj_t_matvec(b)?, lambda)
}

/// [`lstsq_ridge`] on a design given by its columns: builds `AᵀA` and
/// `Aᵀb` straight from the slices with the loops of [`Matrix::gram`] and
/// [`Matrix::conj_t_matvec`] (rows in ascending order), so the result is
/// bit-identical to [`lstsq_ridge`] on the assembled matrix.
///
/// # Errors
///
/// As [`lstsq_ridge`]; a column whose length differs from `b`'s is a
/// [`LinalgError::DimensionMismatch`].
pub fn lstsq_ridge_columns(
    columns: &[&[f64]],
    b: &[f64],
    lambda: f64,
) -> Result<Vec<f64>, LinalgError> {
    if let Some(c) = columns.iter().find(|c| c.len() != b.len()) {
        return Err(LinalgError::DimensionMismatch(format!(
            "rhs length {} does not match row count {}",
            b.len(),
            c.len()
        )));
    }
    if columns.iter().any(|c| c.iter().any(|v| !v.is_finite())) {
        return Err(LinalgError::NonFiniteInput { argument: "a" });
    }
    if b.iter().any(|v| !v.is_finite()) {
        return Err(LinalgError::NonFiniteInput { argument: "b" });
    }
    // `Matrix::gram` and `Matrix::conj_t_matvec` walk the rows in order;
    // do the same, reading each row out of the columns.
    let n = columns.len();
    let mut g = Matrix::zeros(n, n);
    let mut atb = vec![0.0; n];
    let mut row = vec![0.0; n];
    for (i, &bi) in b.iter().enumerate() {
        for (r, c) in row.iter_mut().zip(columns.iter()) {
            *r = c[i];
        }
        for (j, &aij) in row.iter().enumerate() {
            if aij == 0.0 {
                continue;
            }
            for (gjk, &aik) in g.row_mut(j).iter_mut().zip(row.iter()) {
                *gjk += aij * aik;
            }
        }
        for (y, &aij) in atb.iter_mut().zip(row.iter()) {
            *y += aij * bi;
        }
    }
    ridge_solve(g, &atb, lambda)
}

/// Solves `(G + λ·mean(diag G)·I)·x = Aᵀb`, the step both ridge drivers
/// share once they hold the Gram matrix.
fn ridge_solve(mut g: Matrix, atb: &[f64], lambda: f64) -> Result<Vec<f64>, LinalgError> {
    // Scale the ridge with the Gram diagonal so `lambda` is dimensionless.
    let mean_diag = (0..g.cols()).map(|i| g[(i, i)]).sum::<f64>() / g.cols().max(1) as f64;
    let shift = lambda * mean_diag.max(f64::MIN_POSITIVE);
    for i in 0..g.cols() {
        g[(i, i)] += shift;
    }
    crate::lu::solve_square(&g, atb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qr_reconstructs_a() {
        let a: Matrix = Matrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![-1.0, 0.5, 2.0],
            vec![0.25, 1.0, -1.0],
            vec![3.0, -2.0, 1.0],
        ]);
        let qr = Qr::factor(&a).unwrap();
        let recon = qr.thin_q().matmul(&qr.r()).unwrap();
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn thin_q_has_orthonormal_columns() {
        let a: Matrix = Matrix::from_rows(&[
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
            vec![1.0, 4.0],
        ]);
        let q = Qr::factor(&a).unwrap().thin_q();
        let qtq = q.transpose().matmul(&q).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((qtq[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn lstsq_recovers_exact_linear_model() {
        // y = 3 - 2 x1 + 0.5 x2 on a few points.
        let xs = [
            [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [1.0, 0.0, 1.0],
            [1.0, 2.0, 3.0],
            [1.0, -1.0, 2.0],
        ];
        let a: Matrix = Matrix::from_rows(&xs.iter().map(|r| r.to_vec()).collect::<Vec<_>>());
        let coef_true = [3.0, -2.0, 0.5];
        let b: Vec<f64> = xs
            .iter()
            .map(|r| r.iter().zip(coef_true.iter()).map(|(x, c)| x * c).sum())
            .collect();
        let x = lstsq(&a, &b).unwrap();
        for (xi, ci) in x.iter().zip(coef_true.iter()) {
            assert!((xi - ci).abs() < 1e-10);
        }
    }

    #[test]
    fn lstsq_residual_is_orthogonal_to_columns() {
        let a: Matrix = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
        ]);
        let b = vec![0.0, 1.0, 0.5, 3.0];
        let x = lstsq(&a, &b).unwrap();
        let yhat = a.matvec(&x).unwrap();
        let resid: Vec<f64> = b.iter().zip(yhat.iter()).map(|(bi, yi)| bi - yi).collect();
        let atr = a.conj_t_matvec(&resid).unwrap();
        for v in atr {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn rank_deficient_lstsq_errors() {
        let a: Matrix = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        let qr = Qr::factor(&a).unwrap();
        assert_eq!(qr.rank(1e-10), 1);
        assert!(matches!(
            qr.solve_lstsq(&[1.0, 2.0, 3.0]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn ridge_handles_collinear_columns() {
        let a: Matrix = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        let x = lstsq_ridge(&a, &[1.0, 2.0, 3.0], 1e-8).unwrap();
        let yhat = a.matvec(&x).unwrap();
        for (y, b) in yhat.iter().zip([1.0, 2.0, 3.0]) {
            assert!((y - b).abs() < 1e-3);
        }
    }

    #[test]
    fn ridge_matches_plain_lstsq_when_well_posed() {
        let a: Matrix = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 2.0]]);
        let b = vec![1.0, 3.0, 5.0];
        let x0 = lstsq(&a, &b).unwrap();
        let x1 = lstsq_ridge(&a, &b, 1e-12).unwrap();
        for (u, v) in x0.iter().zip(x1.iter()) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn wide_matrix_rejected() {
        let a: Matrix = Matrix::zeros(2, 3);
        assert!(matches!(
            Qr::factor(&a),
            Err(LinalgError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn non_finite_inputs_rejected() {
        let a: Matrix = Matrix::from_rows(&[vec![1.0], vec![f64::NAN]]);
        assert!(matches!(
            Qr::factor(&a),
            Err(LinalgError::NonFiniteInput { .. })
        ));
        let a: Matrix = Matrix::from_rows(&[vec![1.0], vec![1.0]]);
        let qr = Qr::factor(&a).unwrap();
        assert!(matches!(
            qr.solve_lstsq(&[f64::INFINITY, 0.0]),
            Err(LinalgError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn square_system_solves_exactly() {
        let a: Matrix = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let b = vec![5.0, 10.0];
        let x = lstsq(&a, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }
}
