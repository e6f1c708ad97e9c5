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
//! to it by a tolerance, not bit for bit), and the checkpoint save that
//! renamed a fresh file over the old snapshot, are kept the same way.

use std::io::Write;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use caffeine_core::expr::{complexity, eval_basis_all, BasisFunction, EvalContext, VarCombo};
use caffeine_core::fit::{design_matrix, FitOutcome, LinearFit};
use caffeine_core::gp::{Evaluation, GpOperators, Individual, OperatorSettings};
use caffeine_core::grammar::RandomExprGen;
use caffeine_core::sag::SagSettings;
use caffeine_core::{nsga2, CaffeineSettings, GrammarConfig, Model};
use caffeine_doe::Dataset;
use caffeine_linalg::{lstsq, lstsq_ridge, press_statistic, solve_square, LinalgError, Matrix};
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

/// A population with realistic post-crossover redundancy: a small parent
/// pool recombined into `n` offspring, the way generations actually look
/// once the GP operators have been mixing subtrees.
pub fn gp_population(grammar: &GrammarConfig, n: usize, seed: u64) -> Vec<Individual> {
    let gen = RandomExprGen::new(grammar);
    let ops = GpOperators::new(grammar, OperatorSettings::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let parents: Vec<Individual> = (0..n / 5)
        .map(|_| {
            Individual::new(vec![
                gen.gen_basis(&mut rng),
                gen.gen_basis(&mut rng),
                gen.gen_basis(&mut rng),
            ])
        })
        .collect();
    (0..n)
        .map(|_| {
            let p1 = &parents[rng.gen_range(0..parents.len())];
            let p2 = &parents[rng.gen_range(0..parents.len())];
            ops.make_offspring(&mut rng, p1, p2)
        })
        .collect()
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

/// The row-major walk `caffeine_linalg::lstsq_ridge_columns` built its
/// normal equations with before it switched to one dot per Gram entry:
/// every row is gathered out of the columns, then added into `AᵀA` (rows
/// with a zero entry skipped, as `Matrix::gram` does) and into `Aᵀb`.
/// Kept verbatim, with the ridge shift and LU solve the library applies
/// afterwards, as the oracle the column-dot version is pinned to bit for
/// bit (`tests/qr_oracle.rs`).
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
    solve_square(&g, &atb)
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
