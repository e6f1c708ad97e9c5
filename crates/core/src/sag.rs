//! Simplification After Generation (SAG) — paper Sec. 5.1.
//!
//! After the evolutionary run, each model on the tradeoff is post-processed
//! with the PRESS statistic (an exact leave-one-out cross-validation of the
//! *linear* coefficients, computed from the hat-matrix diagonal) coupled
//! with **forward regression**: bases are greedily added in the order that
//! most reduces PRESS, and bases whose inclusion does not improve PRESS —
//! the ones that "harm predictive ability" — are pruned. The surviving
//! subset is refit by least squares.
//!
//! Performance: basis columns are evaluated once through the compiled
//! [`Tape`] evaluator, and each selection round scores every candidate
//! against a single shared [`IncrementalQr`] factorization of the
//! already-selected set (`O(n·k)` per candidate) instead of refactorizing
//! the design from scratch (`O(n·k²)`) per candidate.

use caffeine_doe::Dataset;
use caffeine_linalg::{lstsq, ColumnTrial, IncrementalQr, Matrix};

use crate::expr::{BasisFunction, ComplexityWeights, EvalContext, Tape, TapeVm};
use crate::metrics::ErrorMetric;
use crate::model::Model;
use crate::CaffeineError;

/// SAG tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SagSettings {
    /// A candidate basis must shrink PRESS by at least this relative
    /// factor to be admitted (1.0 = any improvement; 0.99 = ≥1 %).
    pub min_improvement: f64,
    /// Error metric used to restate the pruned model's training error.
    pub metric: ErrorMetric,
    /// Complexity weights used to restate the pruned model's complexity.
    pub complexity: ComplexityWeights,
}

impl Default for SagSettings {
    fn default() -> Self {
        SagSettings {
            min_improvement: 1.0,
            metric: ErrorMetric::default(),
            complexity: ComplexityWeights::default(),
        }
    }
}

/// Runs PRESS-guided forward regression on one model, returning the pruned
/// and refit version.
///
/// The constant column is always included. If no basis improves PRESS over
/// the intercept-only fit, the result is the constant model.
///
/// # Errors
///
/// * [`CaffeineError::InvalidData`] when the dataset is empty or its
///   dimensionality does not match the model.
/// * [`CaffeineError::Linalg`] only for unexpected numerical failures (the
///   candidate-selection loop tolerates singular candidates by skipping
///   them).
pub fn simplify_model(
    model: &Model,
    data: &Dataset,
    settings: &SagSettings,
) -> Result<Model, CaffeineError> {
    if data.n_samples() == 0 {
        return Err(CaffeineError::InvalidData("empty dataset".into()));
    }
    if model.bases.iter().any(|b| b.n_vars() != data.n_vars()) {
        return Err(CaffeineError::InvalidData(format!(
            "model is over a different variable count than the dataset ({} vars)",
            data.n_vars()
        )));
    }
    let ctx = EvalContext::new(model.weight_config);
    let pm = data.point_matrix();
    let targets = data.targets();

    // Evaluate every basis once (compiled, column-at-a-time); discard
    // non-finite columns immediately.
    let mut vm = TapeVm::new();
    let mut tape = Tape::default();
    let mut usable: Vec<(usize, Vec<f64>)> = Vec::new();
    for (i, b) in model.bases.iter().enumerate() {
        tape.compile_into(b, &ctx);
        let col = vm.eval(&tape, &pm);
        if col.iter().all(|v| v.is_finite() && v.abs() < 1e100) {
            usable.push((i, col));
        } else {
            vm.recycle(col);
        }
    }

    let n = data.n_samples();
    let ones = vec![1.0; n];

    // Forward regression over one shared incremental factorization: the
    // committed set [1 | selected…] is factored exactly once, and each
    // round scores every remaining candidate against it in O(n·k) instead
    // of refactorizing the whole design per candidate.
    let mut qr = IncrementalQr::new(targets)?;
    qr.append_column(&ones)?;
    let mut best_press = qr.press();
    // Numerically-perfect fits stop the search: below this PRESS the
    // residual is rounding noise and further "improvements" would select
    // chaff on noise-level comparisons.
    let floor = press_floor(targets);
    let mut selected: Vec<usize> = Vec::new(); // indices into `usable`
    let mut in_model = vec![false; usable.len()];
    let mut cand = ColumnTrial::default();
    let mut best = ColumnTrial::default();

    while best_press > floor && n > qr.cols() + 1 {
        let mut best_k: Option<usize> = None;
        for (k, (_, col)) in usable.iter().enumerate() {
            if in_model[k] {
                continue;
            }
            // Collinear with the current set: skip.
            if !qr.try_column(col, &mut cand) {
                continue;
            }
            if cand.press() < best_press * settings.min_improvement
                && best_k.map(|_| cand.press() < best.press()).unwrap_or(true)
            {
                std::mem::swap(&mut cand, &mut best);
                best_k = Some(k);
            }
        }
        match best_k {
            Some(k) => {
                qr.append(&best);
                in_model[k] = true;
                selected.push(k);
                best_press = best.press();
            }
            None => break,
        }
    }

    // Refit on the selected subset with the exact Householder path (same
    // final coefficients as a from-scratch fit), assembling the design
    // in place from the already-evaluated columns.
    let design = Matrix::from_fn(n, selected.len() + 1, |i, j| {
        if j == 0 {
            1.0
        } else {
            usable[selected[j - 1]].1[i]
        }
    });
    let coefficients = lstsq(&design, targets)?;
    let predictions = design.matvec(&coefficients)?;

    let bases: Vec<BasisFunction> = selected
        .iter()
        .map(|&s| model.bases[usable[s].0].clone())
        .collect();
    let mut pruned = Model::new(bases, coefficients, model.weight_config);
    pruned.train_error = settings.metric.compute(&predictions, targets);
    pruned.recompute_complexity(&settings.complexity);
    Ok(pruned)
}

/// PRESS below which a fit is numerically perfect: the scale of `m`
/// rounding-noise residuals of the target magnitude.
fn press_floor(targets: &[f64]) -> f64 {
    let scale = targets.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    let ulp = 32.0 * f64::EPSILON * scale;
    targets.len() as f64 * ulp * ulp
}

/// Applies [`simplify_model`] to a whole front, dropping models that fail
/// (e.g. all-infeasible columns), and records test errors.
pub fn simplify_front(
    models: &[Model],
    train: &Dataset,
    test: &Dataset,
    settings: &SagSettings,
) -> Vec<Model> {
    let mut out = Vec::with_capacity(models.len());
    for m in models {
        if let Ok(mut pruned) = simplify_model(m, train, settings) {
            let test_err = pruned.error_on(test.points(), test.targets(), &settings.metric);
            pruned.test_error = Some(test_err);
            out.push(pruned);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{VarCombo, WeightConfig};

    fn dataset_1d(f: impl Fn(f64) -> f64, n: usize) -> Dataset {
        let xs: Vec<Vec<f64>> = (1..=n).map(|i| vec![i as f64 * 0.5]).collect();
        let ys: Vec<f64> = xs.iter().map(|p| f(p[0])).collect();
        Dataset::new(vec!["x0".into()], xs, ys).unwrap()
    }

    fn vc_basis(exp: i32) -> BasisFunction {
        BasisFunction::from_vc(VarCombo::single(1, 0, exp))
    }

    #[test]
    fn keeps_the_true_basis_and_prunes_noise() {
        // y = 5/x; model has {1/x, x, x²} — forward regression should keep
        // 1/x and drop the chaff that only adds variance.
        let data = dataset_1d(|x| 5.0 / x, 20);
        let model = Model::new(
            vec![vc_basis(-1), vc_basis(1), vc_basis(2)],
            vec![0.0, 5.0, 0.0, 0.0],
            WeightConfig::default(),
        );
        let pruned = simplify_model(&model, &data, &SagSettings::default()).unwrap();
        assert!(pruned.n_bases() >= 1);
        assert!(
            pruned.bases.contains(&vc_basis(-1)),
            "the true basis must survive"
        );
        assert!(pruned.train_error < 1e-9, "error {}", pruned.train_error);
    }

    #[test]
    fn constant_data_collapses_to_constant_model() {
        let data = dataset_1d(|_| 7.0, 15);
        let model = Model::new(
            vec![vc_basis(1), vc_basis(-1)],
            vec![7.0, 0.0, 0.0],
            WeightConfig::default(),
        );
        let pruned = simplify_model(&model, &data, &SagSettings::default()).unwrap();
        assert_eq!(pruned.n_bases(), 0);
        assert!((pruned.coefficients[0] - 7.0).abs() < 1e-9);
        assert_eq!(pruned.complexity, 0.0);
    }

    #[test]
    fn infeasible_columns_are_dropped_not_fatal() {
        // 1/x column is fine on x>0 but the second basis explodes: x^-1 at
        // a dataset that includes 0.
        let xs = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0], vec![4.0]];
        let ys = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let data = Dataset::new(vec!["x0".into()], xs, ys).unwrap();
        let model = Model::new(
            vec![vc_basis(-1), vc_basis(1)],
            vec![0.0, 0.0, 1.0],
            WeightConfig::default(),
        );
        let pruned = simplify_model(&model, &data, &SagSettings::default()).unwrap();
        assert!(!pruned.bases.contains(&vc_basis(-1)));
        assert!(pruned.train_error < 1e-9);
    }

    #[test]
    fn press_never_increases_along_forward_selection() {
        // Implicitly verified by construction; here we check the final
        // model's PRESS is no worse than intercept-only.
        let data = dataset_1d(|x| 2.0 * x + 1.0, 12);
        let model = Model::new(
            vec![vc_basis(1), vc_basis(2), vc_basis(-1)],
            vec![0.0; 4],
            WeightConfig::default(),
        );
        let pruned = simplify_model(&model, &data, &SagSettings::default()).unwrap();
        assert!(pruned.bases.contains(&vc_basis(1)));
        assert!(pruned.train_error < 1e-9);
    }

    #[test]
    fn simplify_front_records_test_errors() {
        let train = dataset_1d(|x| 3.0 * x, 10);
        let test = dataset_1d(|x| 3.0 * x, 7);
        let models = vec![Model::new(
            vec![vc_basis(1)],
            vec![0.0, 3.0],
            WeightConfig::default(),
        )];
        let front = simplify_front(&models, &train, &test, &SagSettings::default());
        assert_eq!(front.len(), 1);
        assert!(front[0].test_error.unwrap() < 1e-9);
    }

    #[test]
    fn empty_dataset_errors() {
        let data = Dataset::new(vec!["x0".into()], vec![], vec![]).unwrap();
        let model = Model::new(vec![], vec![0.0], WeightConfig::default());
        assert!(simplify_model(&model, &data, &SagSettings::default()).is_err());
    }
}
