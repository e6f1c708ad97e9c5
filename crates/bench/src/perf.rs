//! Shared performance workloads and *reference implementations* for the
//! `perfsnap` binary.
//!
//! The compiled-tape fitness path and the incremental-QR SAG replaced
//! slower tree-walk / refactorize-from-scratch implementations, and the
//! column-major QR and the two-objective sweep replaced a row-major QR
//! and Deb's `O(N²)` count-down sort. The originals are preserved here
//! (not in the library) so before/after numbers stay measurable on any
//! machine — `cargo run --bin perfsnap` compares against them — and so
//! the property tests in `tests/` can pin the replacements to them bit
//! for bit. The row-major walk that built the ridge fallback's normal
//! equations, the QR weight fit the Gram-space solver replaced (pinned
//! to it by a tolerance, not bit for bit), the checkpoint save that
//! renamed a fresh file over the old snapshot, and the indexed LU the
//! circuit simulator solved with before the flat-row kernel
//! ([`ReferenceLu`]), are kept the same way.

use std::cell::RefCell;
use std::io::Write;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use caffeine_core::expr::{complexity, eval_basis_all, BasisFunction, EvalContext, VarCombo};
use caffeine_core::fit::{design_matrix, FitOutcome, LinearFit};
use caffeine_core::gp::{Evaluation, Individual};
use caffeine_core::sag::SagSettings;
use caffeine_core::{
    nsga2, CaffeineSettings, DatasetEvaluator, EngineState, Evaluator, FitScratch, GrammarConfig,
    Model,
};
use caffeine_doe::Dataset;
use caffeine_linalg::{
    lstsq, lstsq_ridge, press_statistic, Complex64, LinalgError, Matrix, Scalar,
};
use caffeine_runtime::{IslandRunner, RuntimeCheckpoint, RuntimeConfig, RuntimeError};

/// 243 points × 13 variables with a rational multi-term target — the
/// shape (and cost profile) of one OTA performance table.
pub fn ota_shaped_dataset() -> Dataset {
    let n_vars = 13;
    let xs: Vec<Vec<f64>> = (0..243)
        .map(|i| {
            (0..n_vars)
                .map(|j| 0.8 + ((i * 13 + j * 7) % 17) as f64 * 0.05)
                .collect()
        })
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x: &Vec<f64>| 2.0 * x[0] / x[3] + 1.5 * x[7] * x[1] + 3.0 / (x[5] * x[9]) + x[12])
        .collect();
    let names = (0..n_vars).map(|j| format!("x{j}")).collect();
    Dataset::new(names, xs, ys).unwrap()
}

/// The pre-tape fitness path: per-individual tree-walk evaluation,
/// from-scratch design assembly and [`reference_fit`]'s Householder
/// solve, exactly as `DatasetEvaluator` scored populations before the
/// compiled evaluator and the Gram-space solver existed. Scores every
/// invalidated individual in `population`.
pub fn reference_fitness_eval(
    population: &mut [Individual],
    data: &Dataset,
    settings: &CaffeineSettings,
    grammar: &GrammarConfig,
) {
    let ctx = EvalContext::new(grammar.weights);
    for ind in population {
        if ind.eval.is_some() {
            continue;
        }
        let cx = complexity(&ind.bases, &settings.complexity);
        let eval = match reference_fit(&ind.bases, data.points(), data.targets(), &ctx) {
            FitOutcome::Fit(fit) => {
                let err = settings.metric.compute(&fit.predictions, data.targets());
                let feasible = err.is_finite();
                Evaluation {
                    coefficients: fit.coefficients,
                    train_error: if feasible {
                        err
                    } else {
                        settings.infeasible_error
                    },
                    complexity: cx,
                    feasible,
                }
            }
            FitOutcome::Infeasible => Evaluation {
                coefficients: vec![0.0; ind.bases.len() + 1],
                train_error: settings.infeasible_error,
                complexity: cx,
                feasible: false,
            },
        };
        ind.eval = Some(eval);
    }
}

/// The weight fit before the Gram-space solver, on the tree-walk
/// design: Householder QR of the assembled `[1 | f₁ … f_k]` (`lstsq`),
/// a `1e-9` ridge when QR finds it singular, and predictions by
/// `Matrix::matvec`. It is `caffeine_core::fit_linear_weights`'s
/// Householder fallback, bit for bit, run on every design; the tolerance
/// oracle in `tests/fit_oracle.rs` compares the Gram path with it.
pub fn reference_fit(
    bases: &[BasisFunction],
    points: &[Vec<f64>],
    targets: &[f64],
    ctx: &EvalContext,
) -> FitOutcome {
    let Some(a) = design_matrix(bases, points, ctx) else {
        return FitOutcome::Infeasible;
    };
    if a.rows() < a.cols() {
        return FitOutcome::Infeasible;
    }
    let coefficients = match lstsq(&a, targets) {
        Ok(c) => c,
        Err(LinalgError::Singular { .. }) => match lstsq_ridge(&a, targets, 1e-9) {
            Ok(c) => c,
            Err(_) => return FitOutcome::Infeasible,
        },
        Err(_) => return FitOutcome::Infeasible,
    };
    if coefficients.iter().any(|c| !c.is_finite()) {
        return FitOutcome::Infeasible;
    }
    match a.matvec(&coefficients) {
        Ok(predictions) => FitOutcome::Fit(LinearFit {
            coefficients,
            predictions,
        }),
        Err(_) => FitOutcome::Infeasible,
    }
}

/// The batches the evaluator sees in generations `1..=generations` of one
/// Standard-shaped search (pop 200, up to 15 bases, the paper grammar)
/// over [`ota_shaped_dataset`], each as handed over: the distinct
/// offspring, not yet evaluated. Replaying them in order through one
/// kept `FitScratch` measures the fitness path as a run drives it, with
/// the columns each batch keeps for the next.
pub fn recorded_generations(generations: usize) -> Vec<Vec<Individual>> {
    /// Records each batch, then evaluates it through one kept scratch.
    struct Recorder<'a> {
        inner: DatasetEvaluator<'a>,
        scratch: RefCell<FitScratch>,
        batches: RefCell<Vec<Vec<Individual>>>,
    }
    impl Evaluator for Recorder<'_> {
        fn evaluate_all(&self, population: &mut [Individual]) {
            self.batches.borrow_mut().push(population.to_vec());
            self.inner
                .evaluate_batch(population, &mut self.scratch.borrow_mut());
        }
    }
    let data = ota_shaped_dataset();
    let mut settings = CaffeineSettings::paper();
    settings.population = 200;
    settings.generations = generations;
    settings.max_bases = 15;
    let grammar = GrammarConfig::paper_full(data.n_vars());
    let recorder = Recorder {
        inner: DatasetEvaluator::new(&settings, &grammar, &data).unwrap(),
        scratch: RefCell::new(FitScratch::new()),
        batches: RefCell::new(Vec::new()),
    };
    let mut state = EngineState::new(settings, grammar, &recorder).unwrap();
    while !state.is_done() {
        state.step(&recorder);
    }
    let mut batches = recorder.batches.into_inner();
    // Batch 0 is the random initial population.
    batches.remove(0);
    batches
}

/// A SAG workload: a model with 26 usable monomial bases over the OTA
/// table (well above the paper's 15-basis ceiling, so the forward
/// regression has real work to do) and a matching dataset.
pub fn sag_workload() -> (Model, Dataset) {
    let data = ota_shaped_dataset();
    let n_vars = data.n_vars();
    let mut bases = Vec::new();
    for j in 0..n_vars {
        bases.push(BasisFunction::from_vc(VarCombo::single(n_vars, j, 1)));
        bases.push(BasisFunction::from_vc(VarCombo::single(n_vars, j, -1)));
    }
    let coefficients = vec![0.0; bases.len() + 1];
    let model = Model::new(
        bases,
        coefficients,
        caffeine_core::expr::WeightConfig::default(),
    );
    (model, data)
}

/// The pre-incremental SAG forward regression: every candidate in every
/// round rebuilds the design matrix (`ones.clone()` + per-column clones)
/// and refactorizes it from scratch through `press_statistic`. Kept
/// verbatim as the performance baseline for `simplify_model`.
pub fn reference_sag(model: &Model, data: &Dataset, settings: &SagSettings) -> Model {
    let ctx = EvalContext::new(model.weight_config);
    let points = data.points();
    let targets = data.targets();
    let mut usable: Vec<(usize, Vec<f64>)> = Vec::new();
    for (i, b) in model.bases.iter().enumerate() {
        let col = eval_basis_all(b, points, &ctx);
        if col.iter().all(|v| v.is_finite() && v.abs() < 1e100) {
            usable.push((i, col));
        }
    }
    let n = data.n_samples();
    let ones = vec![1.0; n];
    let base_design = Matrix::from_columns(std::slice::from_ref(&ones));
    let mut best_press = press_statistic(&base_design, targets).unwrap().press;
    let mut selected: Vec<usize> = Vec::new();
    loop {
        let mut best_candidate: Option<(usize, f64)> = None;
        for (k, (_, col)) in usable.iter().enumerate() {
            if selected.contains(&k) {
                continue;
            }
            let mut cols: Vec<Vec<f64>> = Vec::with_capacity(selected.len() + 2);
            cols.push(ones.clone());
            for &s in &selected {
                cols.push(usable[s].1.clone());
            }
            cols.push(col.clone());
            let design = Matrix::from_columns(&cols);
            if design.rows() <= design.cols() {
                continue;
            }
            let Ok(report) = press_statistic(&design, targets) else {
                continue;
            };
            if report.press < best_press * settings.min_improvement
                && best_candidate
                    .map(|(_, p)| report.press < p)
                    .unwrap_or(true)
            {
                best_candidate = Some((k, report.press));
            }
        }
        match best_candidate {
            Some((k, press)) => {
                selected.push(k);
                best_press = press;
            }
            None => break,
        }
    }
    let mut cols: Vec<Vec<f64>> = Vec::with_capacity(selected.len() + 1);
    cols.push(ones);
    for &s in &selected {
        cols.push(usable[s].1.clone());
    }
    let design = Matrix::from_columns(&cols);
    let report = press_statistic(&design, targets).unwrap();
    let predictions = design.matvec(&report.coefficients).unwrap();
    let bases: Vec<BasisFunction> = selected
        .iter()
        .map(|&s| model.bases[usable[s].0].clone())
        .collect();
    let mut pruned = Model::new(bases, report.coefficients, model.weight_config);
    pruned.train_error = settings.metric.compute(&predictions, targets);
    pruned.recompute_complexity(&settings.complexity);
    pruned
}

/// The row-major Householder QR that `caffeine_linalg::Qr` replaced, kept
/// verbatim as the oracle the column-major kernel is pinned to bit for
/// bit (`tests/qr_oracle.rs`) and as the `least_squares` baseline of
/// `perfsnap`.
#[derive(Debug, Clone)]
pub struct ReferenceQr {
    qr: Matrix,
    betas: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl ReferenceQr {
    /// Factors `a` (requires `rows ≥ cols`).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] when `rows < cols`;
    /// [`LinalgError::NonFiniteInput`] on NaN/infinite entries.
    pub fn factor(a: &Matrix) -> Result<ReferenceQr, LinalgError> {
        let (m, n) = (a.rows(), a.cols());
        if m < n {
            return Err(LinalgError::DimensionMismatch(format!(
                "QR least squares requires rows >= cols, got {m}x{n}"
            )));
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFiniteInput { argument: "a" });
        }
        let mut qr = a.clone();
        let mut betas = vec![0.0; n];
        for k in 0..n {
            let mut norm_sq = 0.0;
            for i in k..m {
                norm_sq += qr[(i, k)] * qr[(i, k)];
            }
            let norm = norm_sq.sqrt();
            if norm == 0.0 {
                betas[k] = 0.0;
                continue;
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            let mut vtv = v0 * v0;
            for i in (k + 1)..m {
                vtv += qr[(i, k)] * qr[(i, k)];
            }
            if vtv == 0.0 {
                betas[k] = 0.0;
                continue;
            }
            let beta = 2.0 / vtv;
            betas[k] = beta;
            qr[(k, k)] = alpha;
            for j in (k + 1)..n {
                let mut dot = v0 * qr[(k, j)];
                for i in (k + 1)..m {
                    dot += qr[(i, k)] * qr[(i, j)];
                }
                let s = beta * dot;
                qr[(k, j)] -= s * v0;
                for i in (k + 1)..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] -= s * vik;
                }
            }
            if v0 != 0.0 {
                for i in (k + 1)..m {
                    qr[(i, k)] /= v0;
                }
                betas[k] = beta * v0 * v0;
            }
        }
        Ok(ReferenceQr {
            qr,
            betas,
            rows: m,
            cols: n,
        })
    }

    fn apply_qt(&self, b: &[f64]) -> Vec<f64> {
        let (m, n) = (self.rows, self.cols);
        let mut y = b.to_vec();
        for k in 0..n {
            let beta = self.betas[k];
            if beta == 0.0 {
                continue;
            }
            let mut dot = y[k];
            for i in (k + 1)..m {
                dot += self.qr[(i, k)] * y[i];
            }
            let s = beta * dot;
            y[k] -= s;
            for i in (k + 1)..m {
                y[i] -= s * self.qr[(i, k)];
            }
        }
        y
    }

    /// The upper-triangular factor `R`.
    pub fn r(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.cols, |i, j| {
            if j >= i {
                self.qr[(i, j)]
            } else {
                0.0
            }
        })
    }

    /// Estimated rank of `R` using a relative diagonal threshold.
    pub fn rank(&self, rel_tol: f64) -> usize {
        let max_diag = (0..self.cols)
            .map(|i| self.qr[(i, i)].abs())
            .fold(0.0, f64::max);
        if max_diag == 0.0 {
            return 0;
        }
        (0..self.cols)
            .filter(|&i| self.qr[(i, i)].abs() > rel_tol * max_diag)
            .count()
    }

    /// Solves `min ‖A·x − b‖₂`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`], [`LinalgError::NonFiniteInput`]
    /// or [`LinalgError::Singular`], as `caffeine_linalg::Qr::solve_lstsq`.
    pub fn solve_lstsq(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
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
        let y = self.apply_qt(b);
        let n = self.cols;
        let max_diag = (0..n).map(|i| self.qr[(i, i)].abs()).fold(0.0, f64::max);
        let tol = max_diag * (self.rows as f64) * f64::EPSILON;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.qr[(i, j)] * x[j];
            }
            let d = self.qr[(i, i)];
            if d.abs() <= tol {
                return Err(LinalgError::Singular { pivot: i });
            }
            x[i] = acc / d;
        }
        Ok(x)
    }
}

/// The magnitude [`ReferenceLu`] pivots on: `|x|` for reals, and for
/// complex numbers the plain `re.hypot(im)` that `Complex64::abs`
/// computed before it short-cut zero parts.
pub trait ReferenceScalar: Scalar {
    /// The pivot magnitude.
    fn reference_modulus(self) -> f64;
}

impl ReferenceScalar for f64 {
    fn reference_modulus(self) -> f64 {
        self.abs()
    }
}

impl ReferenceScalar for Complex64 {
    fn reference_modulus(self) -> f64 {
        self.re.hypot(self.im)
    }
}

/// The LU factorization with partial pivoting that `caffeine_linalg::Lu`
/// replaced: a clone of the matrix walked by `(i, j)` indexing, every
/// multiplier a full division by the pivot. Kept verbatim as the oracle
/// the flat-row kernel is pinned to bit for bit (`tests/lu_oracle.rs`)
/// and as the `lu_solve_real` / `lu_solve_complex` baselines of
/// `perfsnap`.
#[derive(Debug, Clone)]
pub struct ReferenceLu<T = f64> {
    lu: Matrix<T>,
    perm: Vec<usize>,
    perm_sign: f64,
}

impl<T: ReferenceScalar> ReferenceLu<T> {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// As `caffeine_linalg::Lu::factor`, which takes the matrix by value.
    pub fn factor(a: &Matrix<T>) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::DimensionMismatch(format!(
                "LU requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let scale = lu
            .as_slice()
            .iter()
            .map(|v| v.reference_modulus())
            .fold(0.0, f64::max)
            .max(f64::MIN_POSITIVE);
        let tiny = scale * 1e-300_f64.max(f64::EPSILON * 1e-4);

        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_mag = lu[(k, k)].reference_modulus();
            for i in (k + 1)..n {
                let m = lu[(i, k)].reference_modulus();
                if m > pivot_mag {
                    pivot_mag = m;
                    pivot_row = i;
                }
            }
            if pivot_mag <= tiny || !pivot_mag.is_finite() {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor == T::zero() {
                    continue;
                }
                for j in (k + 1)..n {
                    let ukj = lu[(k, j)];
                    lu[(i, j)] -= factor * ukj;
                }
            }
        }
        Ok(ReferenceLu {
            lu,
            perm,
            perm_sign,
        })
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] when `b` has the wrong length.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, LinalgError> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "rhs length {} does not match system dimension {}",
                b.len(),
                n
            )));
        }
        let mut x: Vec<T> = (0..n).map(|i| b[self.perm[i]]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> T {
        let mut d = T::from_f64(self.perm_sign);
        for i in 0..self.lu.rows() {
            d *= self.lu[(i, i)];
        }
        d
    }
}

/// An `n × n` system shaped like the circuit simulator's MNA matrices:
/// node rows with three random couplings each and a `1e-12` gmin on the
/// diagonal, and one voltage-source row and column (a `1` at its node,
/// zero diagonal) per five unknowns, so most entries are exact zeros and row exchanges happen. A
/// coupling is a conductance `g` (as `entry(g, 0.0)`) or, one time in
/// three, a susceptance `b` (as `entry(0.0, b)`): `entry` makes the real
/// DC entry `g` or the complex AC entry `g + j·b`, which leaves most AC
/// entries with a zero part, as device stamps do. Returns the matrix and
/// a right-hand side driven by the sources.
pub fn mna_like_system<T: Scalar>(
    n: usize,
    seed: u64,
    entry: impl Fn(f64, f64) -> T,
) -> (Matrix<T>, Vec<T>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sources = n / 5;
    let nodes = n - sources;
    let mut a = Matrix::zeros(n, n);
    for i in 0..nodes {
        for _ in 0..3 {
            let j = rng.gen_range(0..nodes);
            let y = if rng.gen_range(0..3u32) == 0 {
                entry(0.0, rng.gen_range(1e-6..1e-3))
            } else {
                entry(rng.gen_range(1e-6..1e-3), 0.0)
            };
            a[(i, i)] += y;
            if j != i {
                a[(i, j)] -= y;
                a[(j, j)] += y;
                a[(j, i)] -= y;
            }
        }
        a[(i, i)] += entry(1e-12, 0.0);
    }
    let mut b = vec![T::zero(); n];
    for s in 0..sources {
        let (row, node) = (nodes + s, s * nodes / sources);
        a[(row, node)] += T::one();
        a[(node, row)] += T::one();
        b[row] = entry(rng.gen_range(0.5..3.0), 0.0);
    }
    (a, b)
}

/// The row-major walk `caffeine_linalg::lstsq_ridge_columns` built its
/// normal equations with before it switched to one dot per Gram entry:
/// every row is gathered out of the columns, then added into `AᵀA` (rows
/// with a zero entry skipped, as `Matrix::gram` does) and into `Aᵀb`.
/// Kept verbatim, with the ridge shift and the LU solve (through
/// [`ReferenceLu`]) the library applies afterwards, as the oracle the
/// column-dot version is pinned to bit for bit (`tests/qr_oracle.rs`).
///
/// # Errors
///
/// As `caffeine_linalg::lstsq_ridge_columns`.
pub fn reference_lstsq_ridge_columns(
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
    let mean_diag = (0..n).map(|i| g[(i, i)]).sum::<f64>() / n.max(1) as f64;
    let shift = lambda * mean_diag.max(f64::MIN_POSITIVE);
    for i in 0..n {
        g[(i, i)] += shift;
    }
    ReferenceLu::factor(&g)?.solve(&atb)
}

/// The `O(N²)` count-down non-dominated sort (Deb et al.) that
/// `caffeine_core::nsga2::fast_nondominated_sort` replaced, kept verbatim
/// as the oracle for its fronts *and* their within-front order
/// (`tests/nsga2_oracle.rs`) and as the `nondominated_sort` baseline of
/// `perfsnap`.
pub fn reference_nondominated_sort(objectives: &[[f64; 2]]) -> Vec<Vec<usize>> {
    let n = objectives.len();
    let mut domination_count = vec![0usize; n];
    let mut dominated: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut fronts: Vec<Vec<usize>> = vec![Vec::new()];

    for p in 0..n {
        for q in (p + 1)..n {
            if nsga2::dominates(&objectives[p], &objectives[q]) {
                dominated[p].push(q);
                domination_count[q] += 1;
            } else if nsga2::dominates(&objectives[q], &objectives[p]) {
                dominated[q].push(p);
                domination_count[p] += 1;
            }
        }
        if domination_count[p] == 0 {
            fronts[0].push(p);
        }
    }

    let mut i = 0;
    while !fronts[i].is_empty() {
        let mut next = Vec::new();
        for &p in &fronts[i] {
            for &q in &dominated[p] {
                domination_count[q] -= 1;
                if domination_count[q] == 0 {
                    next.push(q);
                }
            }
        }
        i += 1;
        fronts.push(next);
    }
    fronts.pop();
    fronts
}

/// A GP-shaped selection input: `n` (error, complexity) pairs where the
/// complexity takes Eq. (1)'s discrete values (10 per basis plus 0.25 per
/// variable exponent) and errors repeat, so ties and duplicates are as
/// common as in a real population.
pub fn gp_objectives(n: usize, seed: u64) -> Vec<[f64; 2]> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let error = f64::from(rng.gen_range(0..(n as u32 / 2).max(1))) / n as f64;
            let complexity = 10.0 * f64::from(rng.gen_range(1..16u32))
                + 0.25 * f64::from(rng.gen_range(0..40u32));
            [error, complexity]
        })
        .collect()
}

/// The snapshot a Standard-profile Table I search (pop 200, up to 15
/// bases, the paper grammar over 13 variables) saves at its first
/// checkpoint, generation 100, here over [`ota_shaped_dataset`].
pub fn standard_checkpoint() -> RuntimeCheckpoint {
    let data = ota_shaped_dataset();
    let mut settings = CaffeineSettings::paper();
    settings.population = 200;
    settings.generations = 100;
    settings.max_bases = 15;
    let grammar = GrammarConfig::paper_full(data.n_vars());
    let mut runner = IslandRunner::new(settings, grammar, RuntimeConfig::default(), &data).unwrap();
    runner.run_generations(&data, 100).unwrap();
    runner.checkpoint(&data)
}

/// The checkpoint save that [`RuntimeCheckpoint::save`] replaced: a fresh
/// `<path>.partial`, written and fsynced, renamed over `path`. The rename
/// frees the superseded snapshot's blocks, which costs tens of
/// milliseconds on ext4 mounted with `discard`. Kept verbatim as the
/// `checkpoint_save` baseline of `perfsnap`.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn reference_checkpoint_save(
    checkpoint: &RuntimeCheckpoint,
    path: &Path,
) -> Result<(), RuntimeError> {
    let json =
        serde_json::to_string(checkpoint).map_err(|e| RuntimeError::Corrupt(e.to_string()))?;
    let mut staged = path.as_os_str().to_owned();
    staged.push(".partial");
    let tmp = PathBuf::from(staged);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(json.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}
