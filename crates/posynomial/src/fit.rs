use caffeine_doe::Dataset;
use caffeine_linalg::{nnls, Matrix};

use crate::model::{MonomialTerm, PosynomialModel};
use crate::template::TemplateSpec;
use crate::PosynomialError;

/// Validates posynomial preconditions and evaluates the template columns.
fn template_matrix(
    data: &Dataset,
    spec: &TemplateSpec,
) -> Result<(Matrix, Vec<Vec<i32>>), PosynomialError> {
    if data.n_samples() == 0 || data.n_vars() == 0 {
        return Err(PosynomialError::InvalidData("empty dataset".into()));
    }
    for p in data.points() {
        if p.iter().any(|&v| !(v > 0.0) || !v.is_finite()) {
            return Err(PosynomialError::InvalidData(
                "posynomial models require strictly positive design variables".into(),
            ));
        }
    }
    let exponents = spec.exponent_vectors(data.n_vars());
    if exponents.is_empty() {
        return Err(PosynomialError::EmptyTemplate);
    }
    let a = Matrix::from_fn(data.n_samples(), exponents.len(), |t, k| {
        let term = MonomialTerm {
            coefficient: 1.0,
            exponents: exponents[k].clone(),
        };
        term.monomial_value(data.point(t))
    });
    Ok((a, exponents))
}

/// Scales every column to unit RMS so the active-set solver works on a
/// well-conditioned system (raw monomial columns over physical units can
/// span 20 decades). Returns the scaled matrix and per-column norms.
fn normalize_columns(a: &Matrix) -> (Matrix, Vec<f64>) {
    let mut norms = vec![0.0f64; a.cols()];
    for j in 0..a.cols() {
        let col = a.column(j);
        let rms = (col.iter().map(|v| v * v).sum::<f64>() / a.rows().max(1) as f64).sqrt();
        norms[j] = if rms > 0.0 && rms.is_finite() {
            rms
        } else {
            1.0
        };
    }
    let scaled = Matrix::from_fn(a.rows(), a.cols(), |i, j| a[(i, j)] / norms[j]);
    (scaled, norms)
}

/// Fits a posynomial model (non-negative coefficients) to the data.
///
/// Performances that are predominantly negative (e.g. a negative slew
/// rate) are fit on `−y` and flagged [`PosynomialModel::negated`], the
/// standard trick for positive-valued model families.
///
/// # Errors
///
/// * [`PosynomialError::InvalidData`] for empty data or non-positive
///   design values.
/// * [`PosynomialError::Linalg`] when the NNLS solver fails to converge.
pub fn fit_posynomial(
    data: &Dataset,
    spec: &TemplateSpec,
) -> Result<PosynomialModel, PosynomialError> {
    let (a, exponents) = template_matrix(data, spec)?;
    let mean: f64 = data.targets().iter().sum::<f64>() / data.n_samples() as f64;
    let negated = mean < 0.0;
    let y: Vec<f64> = if negated {
        data.targets().iter().map(|v| -v).collect()
    } else {
        data.targets().to_vec()
    };
    let (scaled, norms) = normalize_columns(&a);
    let solution = nnls(&scaled, &y)?;
    let terms = exponents
        .into_iter()
        .zip(solution.x.iter().zip(norms.iter()))
        .filter(|(_, (&c, _))| c > 0.0)
        .map(|(e, (&c, &n))| MonomialTerm {
            coefficient: c / n,
            exponents: e,
        })
        .collect();
    Ok(PosynomialModel {
        terms,
        negated,
        var_names: data.names().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_2d(f: impl Fn(f64, f64) -> f64) -> Dataset {
        let mut xs = Vec::new();
        for i in 1..=6 {
            for j in 1..=6 {
                xs.push(vec![0.5 + i as f64 * 0.25, 0.5 + j as f64 * 0.4]);
            }
        }
        let ys: Vec<f64> = xs.iter().map(|p| f(p[0], p[1])).collect();
        Dataset::new(vec!["a".into(), "b".into()], xs, ys).unwrap()
    }

    #[test]
    fn recovers_posynomial_ground_truth() {
        let data = grid_2d(|a, b| 1.5 + 2.0 * a + 3.0 / b + 0.5 * a / b);
        let model = fit_posynomial(&data, &TemplateSpec::order2()).unwrap();
        assert!(model.relative_rms_error(&data, 0.0) < 1e-8);
        assert!(model.terms.iter().all(|t| t.coefficient > 0.0));
        assert!(!model.negated);
    }

    #[test]
    fn negative_targets_use_negation() {
        let data = grid_2d(|a, b| -(2.0 * a + 1.0 / b));
        let model = fit_posynomial(&data, &TemplateSpec::order2()).unwrap();
        assert!(model.negated);
        assert!(model.relative_rms_error(&data, 0.0) < 1e-8);
        // Predictions carry the right sign.
        assert!(model.predict_one(&[1.0, 1.0]) < 0.0);
    }

    #[test]
    fn non_posynomial_target_shows_bias() {
        // y = sin-flavoured response: posynomial cannot fit exactly.
        let data = grid_2d(|a, b| (a * b).sin() + 3.0);
        let model = fit_posynomial(&data, &TemplateSpec::order2()).unwrap();
        let err = model.relative_rms_error(&data, 0.0);
        assert!(err > 1e-4, "template bias should leave residual, err={err}");
    }

    #[test]
    fn nonpositive_design_values_rejected() {
        let data =
            Dataset::new(vec!["a".into()], vec![vec![1.0], vec![0.0]], vec![1.0, 2.0]).unwrap();
        assert!(matches!(
            fit_posynomial(&data, &TemplateSpec::order2()),
            Err(PosynomialError::InvalidData(_))
        ));
    }

    #[test]
    fn empty_dataset_rejected() {
        let data = Dataset::new(vec!["a".into()], vec![], vec![]).unwrap();
        assert!(fit_posynomial(&data, &TemplateSpec::order2()).is_err());
    }

    #[test]
    fn zero_coefficient_terms_are_dropped() {
        let data = grid_2d(|a, _| a);
        let model = fit_posynomial(&data, &TemplateSpec::order2()).unwrap();
        assert!(model.n_terms() < TemplateSpec::order2().n_terms(2));
    }
}
