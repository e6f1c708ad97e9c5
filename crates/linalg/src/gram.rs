use crate::{Cholesky, InterceptReflector, LinalgError, Matrix, Qr};

/// The smallest pivot the Gram path accepts in the Cholesky factor of the
/// unit-diagonal (Jacobi-scaled) Gram matrix. A pivot is the squared sine
/// of the angle between a column and the span of the columns before it,
/// so this admits designs up to a condition number of about 10⁵; past
/// that, the normal equations lose more digits than one refinement step
/// recovers, and the solve takes the Householder path.
const MIN_PIVOT: f64 = 1e-10;

/// How many columns one pass of [`dots_below`] carries.
const GROUP: usize = 4;

/// Independent partial sums per dot product in [`dots_below`]: enough
/// for the adds to pipeline and pair up in vector registers.
const LANES: usize = 4;

/// One column `a` of an intercept design `[1 | A]` as [`GramSolver`]
/// reads it: its image `g = H₀·a` under the intercept reflector, with the
/// image's two Gram terms over rows `1..` (primes drop row 0): its squared
/// norm `g'ᵀg'` and its dot `g'ᵀz'` with the reflected right-hand side
/// `z = H₀·b`.
///
/// The terms depend on the column and `z` alone, so a caller that solves
/// many designs over the same columns and right-hand side computes them
/// once per column ([`GramColumn::new`]), stores them beside the image
/// ([`GramColumn::terms`]) and hands them back with each later solve
/// ([`GramColumn::with_terms`]). Each term sums in the same fixed order
/// as the solver's other dot products, so a stored term equals the one
/// the solver would have computed, bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct GramColumn<'a> {
    image: &'a [f64],
    terms: [f64; 2],
}

impl<'a> GramColumn<'a> {
    /// The column with image `image`, its terms computed against the
    /// reflected right-hand side `rhs0`. When the two lengths differ, or
    /// are zero, the terms are NaN; [`GramSolver::solve`] rejects such a
    /// design by its shape before it reads them.
    pub fn new(image: &'a [f64], rhs0: &[f64]) -> GramColumn<'a> {
        let terms = if image.len() == rhs0.len() && !image.is_empty() {
            let below = &image[1..];
            [
                dot_chains::<1>(below, [below])[0],
                dot_chains::<1>(&rhs0[1..], [below])[0],
            ]
        } else {
            [f64::NAN; 2]
        };
        GramColumn { image, terms }
    }

    /// The column with image `image` and the `terms` that
    /// [`GramColumn::new`] computed for it against the same right-hand
    /// side.
    pub fn with_terms(image: &'a [f64], terms: [f64; 2]) -> GramColumn<'a> {
        GramColumn { image, terms }
    }

    /// The image `H₀·a`.
    pub fn image(&self) -> &'a [f64] {
        self.image
    }

    /// `[g'ᵀg', g'ᵀz']`.
    pub fn terms(&self) -> [f64; 2] {
        self.terms
    }
}

/// The image, as [`Qr::factor_reflected`] reads it.
impl AsRef<[f64]> for GramColumn<'_> {
    fn as_ref(&self) -> &[f64] {
        self.image
    }
}

/// Least squares on intercept designs `[1 | A]` from the images `H₀·a_j`
/// of `A`'s columns under the intercept reflector and the reflected
/// right-hand side `z = H₀·b` — the inputs [`Qr::factor_reflected`]
/// takes, which the fitness path computes once per cached column, along
/// with each image's Gram terms ([`GramColumn`]).
///
/// `H₀·[1 | A] = [α·e₀ | G]`, so the problem splits in two. Row 0 is the
/// only row where the intercept has an entry: it fixes
/// `x₀ = (z₀ − Σ_j g₀ⱼ·w_j) / α` once the weights `w` of `A`'s columns
/// are known, and those minimize `‖G'·w − z'‖` over rows `1..` (the primes
/// drop row 0). The solver forms the Gram matrix `G'ᵀG'` and `G'ᵀz'`
/// (their diagonal and right-hand side are the columns' stored terms),
/// scales them to unit diagonal (Jacobi), factors the result with
/// [`Cholesky`], and refines the weights once: the residual `z' − G'·w`
/// is computed from the images, and its normal-equation correction is
/// solved with the same factor. The refinement recovers the digits the
/// normal equations lose to the squared condition number.
///
/// The Householder kernel — [`Qr::factor_reflected`] and
/// [`Qr::back_substitute`], bit for bit — solves instead, and reports
/// the errors, when the design is ill-conditioned or may be singular:
/// a column's image has a zero or non-finite share below row 0, or one
/// under a fixed floor of its norm (nearly a multiple of the intercept);
/// a scaled Gram pivot is under that floor (past a condition number of
/// about 10⁵); the `R` diagonal the factor implies fails QR's own rank
/// test; or the solve ends with a non-finite value. So every design QR
/// might call singular still reaches QR and its callers' ridge fallback.
/// The buffers of both paths are reused from one solve to the next.
///
/// Each dot product here sums in a fixed order (four interleaved
/// partial sums, then the odd rows), so a solve is a pure function of
/// its inputs.
///
/// # Example
///
/// ```
/// use caffeine_linalg::{GramColumn, GramSolver, InterceptReflector};
///
/// # fn main() -> Result<(), caffeine_linalg::LinalgError> {
/// // y = 1 + 2·x on x = 0, 1, 2, 3.
/// let h0 = InterceptReflector::new(4);
/// let mut image = vec![0.0, 1.0, 2.0, 3.0];
/// h0.reflect_column(&mut image);
/// let mut rhs = vec![1.0, 3.0, 5.0, 7.0];
/// h0.reflect_rhs(&mut rhs)?;
/// let column = GramColumn::new(&image, &rhs);
/// let x = GramSolver::default().solve(&h0, &[column], &rhs)?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GramSolver {
    /// The scaled Gram matrix; only its lower triangle is written.
    gram: Matrix,
    chol: Cholesky,
    /// `1/√(G'ᵀG')_jj`, the Jacobi scale of each column.
    scale: Vec<f64>,
    /// A scaled normal-equation right-hand side, then its solution.
    step: Vec<f64>,
    /// `z' − G'·w`, the residual the refinement corrects.
    resid: Vec<f64>,
    /// The Householder fallback and its right-hand side.
    qr: Qr,
    rhs: Vec<f64>,
}

impl GramSolver {
    /// Solves `min ‖[1 | A]·x − b‖₂` given `A`'s `columns` (images
    /// `H₀·a_j` with their terms against `rhs0`) and `rhs0` (`H₀·b`, as
    /// [`InterceptReflector::reflect_rhs`] leaves it); returns the
    /// intercept followed by one weight per column.
    ///
    /// # Errors
    ///
    /// Those of the Householder path ([`Qr::factor_reflected`],
    /// [`Qr::back_substitute`]); in particular
    /// [`LinalgError::Singular`] for a numerically rank-deficient design,
    /// which callers answer with a ridge fit.
    pub fn solve(
        &mut self,
        h0: &InterceptReflector,
        columns: &[GramColumn<'_>],
        rhs0: &[f64],
    ) -> Result<Vec<f64>, LinalgError> {
        if let Some(x) = self.solve_gram(h0, columns, rhs0) {
            return Ok(x);
        }
        self.rhs.clear();
        self.rhs.extend_from_slice(rhs0);
        self.qr.factor_reflected(h0, columns, &mut self.rhs)?;
        self.qr.back_substitute(&self.rhs)
    }

    /// The Gram path; `None` sends the solve to the Householder path.
    fn solve_gram(
        &mut self,
        h0: &InterceptReflector,
        columns: &[GramColumn<'_>],
        z: &[f64],
    ) -> Option<Vec<f64>> {
        let m = h0.rows();
        let k = columns.len();
        if m <= k || z.len() != m || columns.iter().any(|c| c.image.len() != m) {
            return None;
        }
        // Lower triangle of G'ᵀG', row by row (the diagonal is each
        // column's stored norm), then the Jacobi scale.
        self.gram.reset_zeros(k, k);
        for (i, col) in columns.iter().enumerate() {
            dots_below(&col.image[1..], &columns[..i], &mut self.step);
            for (j, &s) in self.step.iter().enumerate() {
                self.gram[(i, j)] = s;
            }
            self.gram[(i, i)] = col.terms[0];
        }
        self.scale.clear();
        for (j, col) in columns.iter().enumerate() {
            // The pivot of column j against the intercept alone: its
            // image's share below row 0.
            let d = self.gram[(j, j)];
            if !(d > MIN_PIVOT * (d + col.image[0] * col.image[0])) || !d.is_finite() {
                return None;
            }
            self.scale.push(1.0 / d.sqrt());
        }
        for i in 0..k {
            for j in 0..i {
                self.gram[(i, j)] *= self.scale[i] * self.scale[j];
            }
            self.gram[(i, i)] = 1.0;
        }
        self.chol.factor(&self.gram, MIN_PIVOT).ok()?;
        // QR's rank test, on the R diagonal the factor implies
        // (|R_jj| = L_jj·√(G'ᵀG')_jj): a design it may call singular is
        // left to it and its ridge fallback.
        let mut r_min = f64::INFINITY;
        let mut r_max = h0.alpha().abs();
        for (j, &s) in self.scale.iter().enumerate() {
            let r = self.chol.diagonal(j) / s;
            r_min = r_min.min(r);
            r_max = r_max.max(r);
        }
        if r_min <= r_max * (m as f64) * f64::EPSILON {
            return None;
        }

        let mut x = Vec::with_capacity(k + 1);
        x.push(0.0);
        self.step.clear();
        self.step.extend(columns.iter().map(|c| c.terms[1]));
        self.solve_scaled().ok()?;
        x.extend_from_slice(&self.step);
        // One refinement step: the residual from the images, its
        // correction through the same factor.
        self.resid.clear();
        self.resid.extend_from_slice(&z[1..]);
        for (col, &w) in columns.iter().zip(&x[1..]) {
            for (r, &g) in self.resid.iter_mut().zip(&col.image[1..]) {
                *r -= g * w;
            }
        }
        dots_below(&self.resid, columns, &mut self.step);
        self.solve_scaled().ok()?;
        for (w, &dw) in x[1..].iter_mut().zip(&self.step) {
            *w += dw;
        }
        // Row 0 fixes the intercept.
        let mut top = z[0];
        for (col, &w) in columns.iter().zip(&x[1..]) {
            top -= col.image[0] * w;
        }
        x[0] = top / h0.alpha();
        x.iter().all(|v| v.is_finite()).then_some(x)
    }

    /// Replaces `step`, a right-hand side `G'ᵀr`, with the solution `w`
    /// of `G'ᵀG'·w = G'ᵀr` through the scaled factor.
    fn solve_scaled(&mut self) -> Result<(), LinalgError> {
        for (b, &s) in self.step.iter_mut().zip(&self.scale) {
            *b *= s;
        }
        self.chol.solve(&mut self.step)?;
        for (w, &s) in self.step.iter_mut().zip(&self.scale) {
            *w *= s;
        }
        Ok(())
    }
}

/// Replaces `out` with the dot products of `x` with rows `1..` of each
/// column's image in `cols` (`x.len() + 1` rows long), [`GROUP`] columns
/// per pass over `x`.
fn dots_below(x: &[f64], cols: &[GramColumn<'_>], out: &mut Vec<f64>) {
    out.clear();
    for group in cols.chunks(GROUP) {
        let below = |c: usize| &group[c].image[1..];
        match group.len() {
            4 => out.extend_from_slice(&dot_chains::<4>(x, std::array::from_fn(below))),
            3 => out.extend_from_slice(&dot_chains::<3>(x, std::array::from_fn(below))),
            2 => out.extend_from_slice(&dot_chains::<2>(x, std::array::from_fn(below))),
            _ => out.extend_from_slice(&dot_chains::<1>(x, std::array::from_fn(below))),
        }
    }
}

/// The dot products of `x` with each of `G` slices at least as long.
/// Each dot product keeps [`LANES`] partial sums over interleaved rows,
/// adds them in order, then adds the leftover rows in ascending order;
/// the other slices in the pass never change its bits.
#[inline]
fn dot_chains<const G: usize>(x: &[f64], ys: [&[f64]; G]) -> [f64; G] {
    let ys: [&[f64]; G] = std::array::from_fn(|c| &ys[c][..x.len()]);
    let mut acc = [[0.0; LANES]; G];
    let whole = x.len() - x.len() % LANES;
    for i in (0..whole).step_by(LANES) {
        let xs = &x[i..i + LANES];
        for c in 0..G {
            let y = &ys[c][i..i + LANES];
            for l in 0..LANES {
                acc[c][l] += xs[l] * y[l];
            }
        }
    }
    std::array::from_fn(|c| {
        let mut sum = acc[c].iter().sum::<f64>();
        for i in whole..x.len() {
            sum += x[i] * ys[c][i];
        }
        sum
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lstsq, lstsq_ridge};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `(images, reflected rhs)` of the design `[1 | cols]`.
    fn reflected(cols: &[Vec<f64>], b: &[f64]) -> (InterceptReflector, Vec<Vec<f64>>, Vec<f64>) {
        let h0 = InterceptReflector::new(b.len());
        let images = cols
            .iter()
            .map(|c| {
                let mut c = c.clone();
                h0.reflect_column(&mut c);
                c
            })
            .collect();
        let mut z = b.to_vec();
        h0.reflect_rhs(&mut z).unwrap();
        (h0, images, z)
    }

    /// The solver's view of `images`, terms computed against `z`.
    fn columns<'a>(images: &'a [Vec<f64>], z: &[f64]) -> Vec<GramColumn<'a>> {
        images.iter().map(|g| GramColumn::new(g, z)).collect()
    }

    fn design(cols: &[Vec<f64>]) -> Matrix {
        let mut all = vec![vec![1.0; cols[0].len()]];
        all.extend(cols.iter().cloned());
        Matrix::from_columns(&all)
    }

    /// `‖A·x − b‖ / ‖b‖`.
    fn relative_residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        let p = a.matvec(x).unwrap();
        let r: f64 = p.iter().zip(b).map(|(p, b)| (p - b) * (p - b)).sum();
        let y: f64 = b.iter().map(|b| b * b).sum();
        (r / y).sqrt()
    }

    #[test]
    fn exact_fit_recovers_coefficients() {
        let xs: Vec<f64> = (0..9).map(|i| 0.5 + i as f64 * 0.25).collect();
        let cols = vec![
            xs.clone(),
            xs.iter().map(|x| 1.0 / x).collect(),
            xs.iter().map(|x| x * x).collect(),
        ];
        let b: Vec<f64> = xs
            .iter()
            .map(|x| 1.5 + 2.0 * x - 0.25 / x + 0.125 * x * x)
            .collect();
        let (h0, images, z) = reflected(&cols, &b);
        let images = columns(&images, &z);
        let mut solver = GramSolver::default();
        assert!(solver.solve_gram(&h0, &images, &z).is_some());
        let x = solver.solve(&h0, &images, &z).unwrap();
        for (got, want) in x.iter().zip([1.5, 2.0, -0.25, 0.125]) {
            assert!((got - want).abs() < 1e-10, "{x:?}");
        }
    }

    /// A stored term is the dot the solver's grouped passes compute for
    /// the same pair, bit for bit, whichever columns share the pass.
    #[test]
    fn stored_terms_equal_the_grouped_dots() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = 23;
        let cols: Vec<Vec<f64>> = (0..6)
            .map(|_| (0..m).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let (_, images, z) = reflected(&cols, &b);
        let columns = columns(&images, &z);
        let mut dots = Vec::new();
        for (j, col) in columns.iter().enumerate() {
            dots_below(&col.image[1..], &columns, &mut dots);
            assert_eq!(dots[j].to_bits(), col.terms()[0].to_bits());
            dots_below(&z[1..], &columns, &mut dots);
            assert_eq!(dots[j].to_bits(), col.terms()[1].to_bits());
        }
    }

    #[test]
    fn collinear_designs_fall_back_to_householder_bit_for_bit() {
        let xs: Vec<f64> = (1..=8).map(f64::from).collect();
        let b: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        // A repeated column, and a column that is a multiple of the
        // intercept (its image is zero below row 0).
        for cols in [vec![xs.clone(), xs.clone()], vec![xs.clone(), vec![2.0; 8]]] {
            let (h0, images, z) = reflected(&cols, &b);
            let images = columns(&images, &z);
            let mut solver = GramSolver::default();
            assert!(solver.solve_gram(&h0, &images, &z).is_none());
            let got = solver.solve(&h0, &images, &z);
            let want = Qr::factor(&design(&cols)).and_then(|qr| qr.solve_lstsq(&b));
            assert_eq!(got, want);
        }
        // Too few rows: the Householder path's shape error.
        let (h0, rhs) = (InterceptReflector::new(2), [1.0, 2.0]);
        let column = GramColumn::new(&[1.0, 2.0], &rhs);
        assert!(matches!(
            GramSolver::default().solve(&h0, &[column, column], &rhs),
            Err(LinalgError::DimensionMismatch(_))
        ));
    }

    /// The Gram path against Householder QR on random designs whose
    /// conditioning spans the pivot floor: wherever the Gram path is
    /// taken, its relative residual `‖A·x − b‖/‖b‖` is within 1e-9 of
    /// QR's, or, where QR calls the design singular, no more than 1e-9
    /// above the ridge fit's.
    #[test]
    fn gram_path_matches_householder_on_random_designs() {
        const TOL: f64 = 1e-9;
        let mut rng = StdRng::seed_from_u64(7);
        let (mut taken, mut ridge_only) = (0, 0);
        for _ in 0..2000 {
            let m = rng.gen_range(4..=60usize);
            let k = rng.gen_range(1..=8usize.min(m - 1));
            let mut cols: Vec<Vec<f64>> = Vec::with_capacity(k);
            for j in 0..k {
                let scale = 10f64.powi(rng.gen_range(-6..=6i32));
                let mut c: Vec<f64> = (0..m).map(|_| scale * rng.gen_range(-1.0..1.0)).collect();
                if j > 0 && rng.gen_range(0..3u32) == 0 {
                    // Nearly a copy of an earlier column.
                    let src = rng.gen_range(0..j);
                    let eps = 10f64.powi(-rng.gen_range(1..=9i32));
                    let ratio = cols[src].iter().map(|v| v.abs()).fold(0.0, f64::max);
                    for (v, &s) in c.iter_mut().zip(&cols[src]) {
                        *v = s + eps * ratio * rng.gen_range(-1.0..1.0);
                    }
                }
                cols.push(c);
            }
            let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let (h0, images, z) = reflected(&cols, &b);
            let images = columns(&images, &z);
            let Some(x) = GramSolver::default().solve_gram(&h0, &images, &z) else {
                continue;
            };
            taken += 1;
            let a = design(&cols);
            let got = relative_residual(&a, &x, &b);
            match lstsq(&a, &b) {
                Ok(reference) => {
                    let want = relative_residual(&a, &reference, &b);
                    assert!(
                        (got - want).abs() <= TOL,
                        "gram {got} vs householder {want}"
                    );
                }
                // Columns whose scales differ by more than QR's relative
                // rank tolerance: the ridge fit QR's callers fall back to
                // can only be worse than the least-squares optimum.
                Err(LinalgError::Singular { .. }) => {
                    let ridge = lstsq_ridge(&a, &b, 1e-9).unwrap();
                    let want = relative_residual(&a, &ridge, &b);
                    assert!(got <= want + TOL, "gram {got} vs ridge {want}");
                    ridge_only += 1;
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert!(taken > 1000, "the Gram path ran on only {taken} designs");
        eprintln!("gram path on {taken} of 2000 designs, {ridge_only} of them ridge fits in QR");
    }
}
