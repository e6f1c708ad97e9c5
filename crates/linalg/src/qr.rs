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
/// The kernel's arithmetic is fixed: each dot product accumulates in
/// ascending row order, so a factorization is a pure function of the
/// matrix entries.
///
/// The fitness hot path factors designs `[1 | A]` whose first column is
/// the intercept. Step 0 of the kernel then depends only on the row count,
/// so the path keeps one `Qr` per worker and refactors it in place with
/// [`Qr::factor_reflected`]: the columns arrive already reflected through
/// the intercept's [`InterceptReflector`] (computed once per cached
/// column), the folded intercept column is installed, the kernel starts
/// at step 1, and the targets are reflected alongside. No row-major
/// design matrix is ever assembled, and the factor and solution are
/// bit-identical to [`Qr::factor`] and [`Qr::solve_lstsq`] on `[1 | A]`.
///
/// # Example
///
/// ```
/// use caffeine_linalg::{InterceptReflector, Matrix, Qr};
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
/// // The same solution from the reflected non-intercept column and the
/// // reflected right-hand side, reusing storage.
/// let h0 = InterceptReflector::new(3);
/// let mut column = vec![0.0, 1.0, 2.0];
/// h0.reflect_column(&mut column);
/// let mut rhs = vec![1.0, 3.0, 5.0];
/// h0.reflect_rhs(&mut rhs)?;
/// let mut reused = Qr::default();
/// reused.factor_reflected(&h0, &[&column], &mut rhs)?;
/// assert_eq!(reused.back_substitute(&rhs)?, x);
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
        qr.householder(m, n, 0, &mut []);
        Ok(qr)
    }

    /// Refactors in place from the design `[1 | A]`, given the images
    /// `H₀·a_j` of `A`'s columns under the intercept reflector `h0` (see
    /// [`InterceptReflector::reflect_column`]), reusing this value's
    /// storage, and carries a right-hand side along. Installs the
    /// intercept column as step 0 of the kernel leaves it and runs the
    /// remaining steps, so the factor is bit-identical to [`Qr::factor`]
    /// on `[1 | A]`.
    ///
    /// `rhs` must hold `H₀·b` ([`InterceptReflector::reflect_rhs`]); it is
    /// left holding `Qᵀb`, the vector [`Qr::solve_lstsq_in_place`] reaches
    /// before back substitution, bit for bit: each reflector is applied
    /// to it in the solve's arithmetic as soon as the reflector is final,
    /// inside the pass that finishes it. [`Qr::back_substitute`] then
    /// yields the least-squares solution. On error the previous
    /// factorization and `rhs` are kept.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] when an image's or `rhs`'s
    ///   length is not `h0.rows()`, or the design has fewer rows than
    ///   columns.
    /// * [`LinalgError::NonFiniteInput`] when an image has NaN/infinite
    ///   entries.
    pub fn factor_reflected(
        &mut self,
        h0: &InterceptReflector,
        images: &[&[f64]],
        rhs: &mut [f64],
    ) -> Result<(), LinalgError> {
        let m = h0.rows();
        let n = images.len() + 1;
        if images.iter().any(|c| c.len() != m) {
            return Err(LinalgError::DimensionMismatch(
                "QR columns must all have the same length".into(),
            ));
        }
        check_shape(m, n)?;
        check_rhs(rhs, m)?;
        if images.iter().any(|c| c.iter().any(|v| !v.is_finite())) {
            return Err(LinalgError::NonFiniteInput { argument: "a" });
        }
        self.qr.clear();
        self.qr.extend_from_slice(&h0.folded);
        for c in images {
            self.qr.extend_from_slice(c);
        }
        self.householder(m, n, 1, rhs);
        self.betas[0] = h0.folded_beta;
        Ok(())
    }

    /// The factorization kernel over `self.qr` (an `m × n` column-major
    /// copy of `A`, validated by the caller), from step `start` on: the
    /// columns before it must already hold their finished steps. Unless
    /// `rhs` is empty, each new reflector is applied to it as the solve
    /// would (see [`Qr::factor_reflected`]).
    fn householder(&mut self, m: usize, n: usize, start: usize, rhs: &mut [f64]) {
        self.rows = m;
        self.cols = n;
        self.betas.clear();
        self.betas.resize(n, 0.0);
        // ‖column k‖² over rows k.., when step k − 1 summed it while it
        // updated that column (same values, same ascending order).
        let mut carried: Option<f64> = None;
        for k in start..n {
            let (done, trailing) = self.qr.split_at_mut((k + 1) * m);
            let col = &mut done[k * m..];
            // Build the Householder reflector annihilating col[k+1..].
            let norm_sq = carried.take().unwrap_or_else(|| {
                let mut norm_sq = 0.0;
                for &x in &col[k..] {
                    norm_sq += x * x;
                }
                norm_sq
            });
            let norm = norm_sq.sqrt();
            if norm == 0.0 {
                continue;
            }
            let alpha = if col[k] >= 0.0 { -norm } else { norm };
            // |v0| ≥ norm > 0, so v0 is never zero.
            let v0 = col[k] - alpha;
            let (head, v) = col.split_at_mut(k + 1);
            // v = [v0, v…]; beta = 2 / (vᵀv). The vᵀv chain rides along
            // the first pass over the trailing columns; a zero vᵀv leaves
            // every column untouched.
            let mut groups = trailing.chunks_mut(GROUP * m);
            let mut first = groups.next();
            let mut dots = [0.0; GROUP];
            let vtv = match first.as_deref() {
                Some(group) => reflector_dots::<true>(group, m, k, v0, v, &mut dots),
                None => {
                    let mut vtv = v0 * v0;
                    for &x in v.iter() {
                        vtv += x * x;
                    }
                    vtv
                }
            };
            if vtv == 0.0 {
                continue;
            }
            let beta = 2.0 / vtv;
            if let Some(group) = first.as_deref_mut() {
                group_update(&mut group[m..], m, k, v0, v, beta, &dots[1..]);
            }
            let mut group_dots = [0.0; GROUP];
            for group in groups {
                reflector_dots::<false>(group, m, k, v0, v, &mut group_dots);
                group_update(group, m, k, v0, v, beta, &group_dots);
            }
            head[k] = alpha;
            // Column k's subdiagonal already holds v[1..]. R owns the
            // diagonal, so v0 is folded away instead of stored: divide
            // v[1..] by v0 and fold v0² into beta, leaving v = [1, …].
            // The next column's update by this reflector, the fold and
            // that column's norm for step k + 1 share one pass: each value
            // is computed as in separate passes.
            let folded_beta = beta * v0 * v0;
            self.betas[k] = folded_beta;
            let Some(group) = first else {
                for x in v.iter_mut() {
                    *x /= v0;
                }
                if !rhs.is_empty() {
                    reflect_folded(folded_beta, k, v, rhs);
                }
                continue;
            };
            let next = &mut group[k..m];
            let s = beta * dots[0];
            next[0] -= s * v0;
            let mut next_norm_sq = 0.0;
            if rhs.is_empty() {
                for (x, vi) in next[1..].iter_mut().zip(v.iter_mut()) {
                    *x -= s * *vi;
                    next_norm_sq += *x * *x;
                    *vi /= v0;
                }
            } else {
                // The right-hand side's dot with the folded reflector (the
                // chain `reflect_folded` sums) rides along as well.
                let (head, tail) = rhs.split_at_mut(k + 1);
                let mut dot = head[k];
                for ((x, vi), &yi) in next[1..].iter_mut().zip(v.iter_mut()).zip(tail.iter()) {
                    *x -= s * *vi;
                    next_norm_sq += *x * *x;
                    *vi /= v0;
                    dot += *vi * yi;
                }
                if folded_beta != 0.0 {
                    let s = folded_beta * dot;
                    head[k] -= s;
                    for (yi, &vi) in tail.iter_mut().zip(v.iter()) {
                        *yi -= s * vi;
                    }
                }
            }
            carried = Some(next_norm_sq);
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
        let v = &self.qr[k * self.rows + k + 1..(k + 1) * self.rows];
        reflect_folded(self.betas[k], k, v, y);
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
        check_rhs(b, self.rows)?;
        if b.iter().any(|v| !v.is_finite()) {
            return Err(LinalgError::NonFiniteInput { argument: "b" });
        }
        for k in 0..self.cols {
            self.reflect_vector(k, b);
        }
        self.back_substitute(b)
    }

    /// Solves `R·x = Qᵀb` by back substitution, given `qtb = Qᵀb` (as
    /// [`Qr::factor_reflected`] leaves its right-hand side): the last
    /// stage of [`Qr::solve_lstsq_in_place`].
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `qtb.len() != rows`.
    /// * [`LinalgError::Singular`] if `R` is numerically rank deficient.
    pub fn back_substitute(&self, qtb: &[f64]) -> Result<Vec<f64>, LinalgError> {
        check_rhs(qtb, self.rows)?;
        let n = self.cols;
        let tol = self.max_diag() * (self.rows as f64) * f64::EPSILON;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = qtb[i];
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

/// The right-hand-side length guard.
fn check_rhs(b: &[f64], rows: usize) -> Result<(), LinalgError> {
    if b.len() != rows {
        return Err(LinalgError::DimensionMismatch(format!(
            "rhs length {} does not match row count {rows}",
            b.len()
        )));
    }
    Ok(())
}

/// Applies the folded reflector `H = I - beta v vᵀ`, `v = [1, tail…]`
/// acting on rows `k..`, to `y` in place: the solve's reflection of the
/// right-hand side.
#[inline]
fn reflect_folded(beta: f64, k: usize, tail: &[f64], y: &mut [f64]) {
    if beta == 0.0 {
        return;
    }
    let (head, rest) = y.split_at_mut(k + 1);
    let mut dot = head[k];
    for (&vi, &yi) in tail.iter().zip(rest.iter()) {
        dot += vi * yi;
    }
    let s = beta * dot;
    head[k] -= s;
    for (yi, &vi) in rest.iter_mut().zip(tail.iter()) {
        *yi -= s * vi;
    }
}

/// The Householder reflector `H₀` that step 0 of [`Qr`]'s kernel builds
/// for a design whose first column is the intercept `[1 … 1]`.
///
/// That column is the same in every such design of `rows` rows, so `H₀`
/// depends on the row count alone. Computed once, it lets a caller that
/// factors many intercept designs over the same rows reflect each other
/// column (and the right-hand side) once and reuse the image in every
/// [`Qr::factor_reflected`] it takes part in. Every value here is
/// produced by the kernel's own arithmetic on the intercept column, so
/// the results stay bit-identical to [`Qr::factor`] and
/// [`Qr::solve_lstsq`] on the assembled design.
#[derive(Debug, Clone, Default)]
pub struct InterceptReflector {
    /// The intercept column as step 0 leaves it: `R₀₀ = alpha` on the
    /// diagonal, the folded reflector `1/v0` below it.
    folded: Vec<f64>,
    /// The unfolded reflector below the diagonal: `rows − 1` ones.
    ones: Vec<f64>,
    v0: f64,
    /// `2 / vᵀv` of the unfolded reflector `[v0, 1, …, 1]`.
    beta: f64,
    /// `beta·v0·v0`, the solve's scalar for the folded reflector.
    folded_beta: f64,
}

impl InterceptReflector {
    /// The intercept reflector of designs with `rows` rows.
    pub fn new(rows: usize) -> InterceptReflector {
        if rows == 0 {
            return InterceptReflector::default();
        }
        // Step 0 of `Qr::householder` on a column of ones, operation for
        // operation.
        let ones = vec![1.0; rows - 1];
        let mut norm_sq = 0.0;
        for x in std::iter::once(1.0).chain(ones.iter().copied()) {
            norm_sq += x * x;
        }
        let alpha = -f64::sqrt(norm_sq);
        let v0 = 1.0 - alpha;
        let mut vtv = v0 * v0;
        for &x in &ones {
            vtv += x * x;
        }
        let beta = 2.0 / vtv;
        let mut folded = Vec::with_capacity(rows);
        folded.push(alpha);
        folded.extend(ones.iter().map(|&x| x / v0));
        InterceptReflector {
            folded,
            ones,
            v0,
            beta,
            folded_beta: beta * v0 * v0,
        }
    }

    /// Number of rows of the designs this reflector belongs to.
    pub fn rows(&self) -> usize {
        self.folded.len()
    }

    /// Replaces a design column with its image under `H₀`: the values
    /// step 0 of the kernel leaves in that column of `[1 | …]`,
    /// computed by the kernel's own update.
    ///
    /// # Panics
    ///
    /// Panics when `column.len() != self.rows()`.
    pub fn reflect_column(&self, column: &mut [f64]) {
        assert_eq!(column.len(), self.rows(), "column length");
        if column.is_empty() {
            return;
        }
        let m = column.len();
        let mut dot = [0.0; GROUP];
        reflector_dots::<false>(column, m, 0, self.v0, &self.ones, &mut dot);
        group_update(column, m, 0, self.v0, &self.ones, self.beta, &dot);
    }

    /// Replaces a right-hand side with `H₀·b`, the first reflection
    /// [`Qr::solve_lstsq_in_place`] applies, after validating it as that
    /// solve does.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `b.len() != self.rows()`.
    /// * [`LinalgError::NonFiniteInput`] if `b` has non-finite entries
    ///   (`b` is then left as it was).
    pub fn reflect_rhs(&self, b: &mut [f64]) -> Result<(), LinalgError> {
        check_rhs(b, self.rows())?;
        if b.iter().any(|v| !v.is_finite()) {
            return Err(LinalgError::NonFiniteInput { argument: "b" });
        }
        if let Some(tail) = self.folded.get(1..) {
            reflect_folded(self.folded_beta, 0, tail, b);
        }
        Ok(())
    }
}

/// The dot products of reflector `k` (`v = [v0, v…]`) with the 1 to
/// [`GROUP`] adjacent columns stored in `group` (column-major), written
/// to the front of `dots`; with `VTV`, also `vᵀv` (returned, `0.0`
/// otherwise).
fn reflector_dots<const VTV: bool>(
    group: &[f64],
    m: usize,
    k: usize,
    v0: f64,
    v: &[f64],
    dots: &mut [f64; GROUP],
) -> f64 {
    match group.len() / m {
        4 => reflector_chains::<4, VTV>(group, m, k, v0, v, dots),
        3 => reflector_chains::<3, VTV>(group, m, k, v0, v, dots),
        2 => reflector_chains::<2, VTV>(group, m, k, v0, v, dots),
        _ => reflector_chains::<1, VTV>(group, m, k, v0, v, dots),
    }
}

/// [`reflector_dots`] for exactly `G` columns.
///
/// All chains are accumulated in one pass over `v`, each in its own
/// order: a column's starts at `v0 · a_kj` and adds `v_i · a_ij` in
/// ascending row order, `vᵀv` starts at `v0²` and adds `v_i²` likewise.
#[inline]
fn reflector_chains<const G: usize, const VTV: bool>(
    group: &[f64],
    m: usize,
    k: usize,
    v0: f64,
    v: &[f64],
    dots: &mut [f64; GROUP],
) -> f64 {
    let cols: [&[f64]; G] = std::array::from_fn(|c| &group[c * m + k..(c + 1) * m]);
    let mut acc: [f64; G] = std::array::from_fn(|c| v0 * cols[c][0]);
    let mut vtv = v0 * v0;
    let below: [&[f64]; G] = std::array::from_fn(|c| &cols[c][1..=v.len()]);
    for (i, &vi) in v.iter().enumerate() {
        if VTV {
            vtv += vi * vi;
        }
        for c in 0..G {
            acc[c] += vi * below[c][i];
        }
    }
    dots[..G].copy_from_slice(&acc);
    if VTV {
        vtv
    } else {
        0.0
    }
}

/// Applies reflector `k` (`H = I - beta v vᵀ`, `v = [v0, v…]`) to the
/// columns of `group`, given their dot products with `v` in order.
fn group_update(
    group: &mut [f64],
    m: usize,
    k: usize,
    v0: f64,
    v: &[f64],
    beta: f64,
    dots: &[f64],
) {
    for (col, &dot) in group.chunks_exact_mut(m).zip(dots) {
        let s = beta * dot;
        let col = &mut col[k..];
        col[0] -= s * v0;
        for (x, &vi) in col[1..].iter_mut().zip(v) {
            *x -= s * vi;
        }
    }
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

/// [`lstsq_ridge`] on a design given by its columns, bit-identical to it
/// on the assembled matrix.
///
/// Each entry of `AᵀA` (and of `Aᵀb`) is one dot product over ascending
/// rows, computed once and stored in both triangles; one pass over a
/// column carries up to four such chains. That is the sum
/// [`Matrix::gram`] and [`Matrix::conj_t_matvec`] accumulate entry by
/// entry while they walk the rows: the walk's skip of a zero `a_ij` only
/// drops `±0` addends, which cannot change a sum that starts at `+0.0`
/// (it never becomes `−0.0`), and `a_ij·a_ik = a_ik·a_ij` exactly.
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
    let n = columns.len();
    let mut g = Matrix::zeros(n, n);
    let mut sums = [0.0; GROUP];
    for (j, &cj) in columns.iter().enumerate() {
        for (start, group) in columns[j..].chunks(GROUP).enumerate() {
            let sums = dots(cj, group, &mut sums);
            for (offset, &s) in sums.iter().enumerate() {
                let k = j + start * GROUP + offset;
                g[(j, k)] = s;
                g[(k, j)] = s;
            }
        }
    }
    let mut atb = Vec::with_capacity(n);
    for group in columns.chunks(GROUP) {
        atb.extend_from_slice(dots(b, group, &mut sums));
    }
    ridge_solve(g, &atb, lambda)
}

/// The dot products of `x` with each of the 1 to [`GROUP`] columns in
/// `ys`, written to the front of `out` and returned. One pass over the
/// rows carries every chain; each starts at `+0.0` and adds `x_i·y_i` in
/// ascending row order.
fn dots<'a>(x: &[f64], ys: &[&[f64]], out: &'a mut [f64; GROUP]) -> &'a [f64] {
    match ys.len() {
        4 => dot_chains::<4>(x, ys, out),
        3 => dot_chains::<3>(x, ys, out),
        2 => dot_chains::<2>(x, ys, out),
        _ => dot_chains::<1>(x, ys, out),
    }
    &out[..ys.len()]
}

/// [`dots`] for exactly `G` columns.
#[inline]
fn dot_chains<const G: usize>(x: &[f64], ys: &[&[f64]], out: &mut [f64; GROUP]) {
    let ys: [&[f64]; G] = std::array::from_fn(|c| &ys[c][..x.len()]);
    let mut acc = [0.0; G];
    for (i, &xi) in x.iter().enumerate() {
        for c in 0..G {
            acc[c] += xi * ys[c][i];
        }
    }
    out[..G].copy_from_slice(&acc);
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
