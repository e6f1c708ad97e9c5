use serde::{Deserialize, Serialize};

use caffeine_doe::PointMatrix;

use crate::expr::{
    complexity, eval_basis, BasisFunction, ComplexityWeights, EvalContext, FormatOptions, Tape,
    TapeVm, WeightConfig,
};
use crate::metrics::ErrorMetric;

/// A fitted symbolic model: `a₀ + Σ aⱼ·fⱼ(x)` with learned coefficients.
///
/// This is the user-facing artifact of a CAFFEINE run — the rows of the
/// paper's Tables I and II are formatted [`Model`]s.
///
/// # Example
///
/// ```
/// use caffeine_core::expr::{BasisFunction, VarCombo, WeightConfig};
/// use caffeine_core::Model;
///
/// // 2 + 3/x0
/// let m = Model::new(
///     vec![BasisFunction::from_vc(VarCombo::single(1, 0, -1))],
///     vec![2.0, 3.0],
///     WeightConfig::default(),
/// );
/// assert!((m.predict_one(&[2.0]) - 3.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    /// The basis functions.
    pub bases: Vec<BasisFunction>,
    /// Intercept followed by one coefficient per basis.
    pub coefficients: Vec<f64>,
    /// Weight interpretation parameters the bases were evolved under.
    pub weight_config: WeightConfig,
    /// Training error recorded at fit time.
    pub train_error: f64,
    /// Testing error, when evaluated on held-out data.
    pub test_error: Option<f64>,
    /// Complexity per Eq. (1), recorded at fit time.
    pub complexity: f64,
}

impl Model {
    /// Creates a model from bases and coefficients (errors/complexity
    /// zeroed; use the engine or [`Model::with_metrics`] to fill them).
    ///
    /// # Panics
    ///
    /// Panics when `coefficients.len() != bases.len() + 1`.
    pub fn new(
        bases: Vec<BasisFunction>,
        coefficients: Vec<f64>,
        weight_config: WeightConfig,
    ) -> Model {
        assert_eq!(
            coefficients.len(),
            bases.len() + 1,
            "need intercept plus one coefficient per basis"
        );
        Model {
            bases,
            coefficients,
            weight_config,
            train_error: 0.0,
            test_error: None,
            complexity: 0.0,
        }
    }

    /// Attaches recorded error/complexity metadata. Complexity is clamped
    /// at zero (so `-0.0` never leaks into reports).
    pub fn with_metrics(mut self, train_error: f64, complexity: f64) -> Model {
        self.train_error = train_error;
        self.complexity = complexity.max(0.0);
        self
    }

    /// Number of basis functions (the constant does not count, matching
    /// the paper's "up to 4 basis functions, not including the constant").
    pub fn n_bases(&self) -> usize {
        self.bases.len()
    }

    /// The minimum input width a design point must have: one past the
    /// highest variable index any basis references (0 for constant
    /// models).
    pub fn min_vars(&self) -> usize {
        self.used_variables().last().map_or(0, |&i| i + 1)
    }

    /// Predicts one design point.
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        let ctx = EvalContext::new(self.weight_config);
        let mut y = self.coefficients[0];
        for (b, &c) in self.bases.iter().zip(&self.coefficients[1..]) {
            if c != 0.0 {
                y += c * eval_basis(b, x, &ctx);
            }
        }
        y
    }

    /// Predicts a batch of design points (compiled column evaluation;
    /// bit-identical to mapping [`Model::predict_one`] over the rows for
    /// every non-NaN prediction — NaN predictions agree as NaN, but their
    /// sign/payload may differ from the interpreter's).
    pub fn predict(&self, points: &[Vec<f64>]) -> Vec<f64> {
        self.predict_matrix(&PointMatrix::from_rows(points))
    }

    /// Predicts every point of a column-major [`PointMatrix`].
    ///
    /// Each basis is lowered once to a [`Tape`] and evaluated by the
    /// lane-chunked [`TapeVm`] — the batch path used when scoring models
    /// on whole datasets and by the serve `/predict` endpoint.
    pub fn predict_matrix(&self, pm: &PointMatrix) -> Vec<f64> {
        let ctx = EvalContext::new(self.weight_config);
        let mut vm = TapeVm::new();
        let mut tape = Tape::default();
        let mut y = vec![self.coefficients[0]; pm.n_points()];
        for (b, &c) in self.bases.iter().zip(&self.coefficients[1..]) {
            if c != 0.0 {
                tape.compile_into(b, &ctx);
                let col = vm.eval(&tape, pm);
                for (yi, &v) in y.iter_mut().zip(&col) {
                    *yi += c * v;
                }
                vm.recycle(col);
            }
        }
        y
    }

    /// Evaluates the model's error on a dataset under `metric`.
    pub fn error_on(&self, points: &[Vec<f64>], targets: &[f64], metric: &ErrorMetric) -> f64 {
        metric.compute(&self.predict(points), targets)
    }

    /// Recomputes the complexity measure (e.g. after SAG pruning).
    pub fn recompute_complexity(&mut self, weights: &ComplexityWeights) {
        self.complexity = complexity(&self.bases, weights).max(0.0);
    }

    /// Formats the model as a human-readable expression (paper style).
    pub fn format(&self, opts: &FormatOptions) -> String {
        crate::expr::format_model(&self.bases, &self.coefficients, opts)
    }

    /// Returns an algebraically cleaned copy: zero-weight terms pruned,
    /// variable-free factors folded into the coefficients, and constant-1
    /// bases folded into the intercept.
    ///
    /// Value-preserving to the weight encoding's precision (~1e−9
    /// relative); training/test error metadata is kept as-is since the
    /// predictions are unchanged at that precision. Complexity is
    /// recomputed with the given weights.
    pub fn simplified(&self, complexity_weights: &ComplexityWeights) -> Model {
        let ctx = EvalContext::new(self.weight_config);
        let mut intercept = self.coefficients[0];
        let mut bases = Vec::with_capacity(self.bases.len());
        let mut coefficients = vec![0.0];
        for (b, &c) in self.bases.iter().zip(&self.coefficients[1..]) {
            let mut b = b.clone();
            crate::expr::prune_zero_terms(&mut b, &ctx);
            let (mult, stripped) = crate::expr::strip_constant_factors(&b, &ctx);
            let folded = c * mult;
            if stripped.is_trivial() {
                intercept += folded;
            } else if folded != 0.0 {
                bases.push(stripped);
                coefficients.push(folded);
            }
        }
        coefficients[0] = intercept;
        let mut out = Model::new(bases, coefficients, self.weight_config);
        out.train_error = self.train_error;
        out.test_error = self.test_error;
        out.recompute_complexity(complexity_weights);
        out
    }

    /// Numerical sensitivities `∂y/∂x_i` at a design point (central
    /// differences with relative step `rel_step`, absolute floor 1e-12).
    ///
    /// This serves the paper's stated purpose — "examine the equations to
    /// gain an understanding of how design variables affect performance" —
    /// quantitatively: rank which variables matter at an operating point.
    pub fn sensitivities(&self, x: &[f64], rel_step: f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(x.len());
        for i in 0..x.len() {
            let h = (x[i].abs() * rel_step).max(1e-12);
            let mut hi = x.to_vec();
            let mut lo = x.to_vec();
            hi[i] += h;
            lo[i] -= h;
            out.push((self.predict_one(&hi) - self.predict_one(&lo)) / (2.0 * h));
        }
        out
    }

    /// Dimensionless (logarithmic) sensitivities `(∂y/∂x_i)·(x_i/y)` at a
    /// design point: the percent change of `y` per percent change of
    /// `x_i`. Entries are 0 when `y` is 0 at the point.
    pub fn relative_sensitivities(&self, x: &[f64], rel_step: f64) -> Vec<f64> {
        let y = self.predict_one(x);
        self.sensitivities(x, rel_step)
            .into_iter()
            .enumerate()
            .map(|(i, s)| if y != 0.0 { s * x[i] / y } else { 0.0 })
            .collect()
    }

    /// Variables used anywhere in the model (sorted indices).
    pub fn used_variables(&self) -> Vec<usize> {
        let mut used: Vec<usize> = self.bases.iter().flat_map(|b| b.used_variables()).collect();
        used.sort_unstable();
        used.dedup();
        used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarCombo;

    fn rational_model() -> Model {
        // 1 + 2·x0 − 3/x1
        Model::new(
            vec![
                BasisFunction::from_vc(VarCombo::single(2, 0, 1)),
                BasisFunction::from_vc(VarCombo::single(2, 1, -1)),
            ],
            vec![1.0, 2.0, -3.0],
            WeightConfig::default(),
        )
    }

    #[test]
    fn prediction_matches_hand_computation() {
        let m = rational_model();
        assert!((m.predict_one(&[2.0, 3.0]) - (1.0 + 4.0 - 1.0)).abs() < 1e-12);
        let ys = m.predict(&[vec![1.0, 1.0], vec![2.0, 3.0]]);
        assert_eq!(ys.len(), 2);
        assert!((ys[0] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn error_on_perfect_data_is_zero() {
        let m = rational_model();
        let pts = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        let ys = m.predict(&pts);
        assert_eq!(
            m.error_on(&pts, &ys, &ErrorMetric::RelativeRms { c: 0.0 }),
            0.0
        );
    }

    #[test]
    fn complexity_updates_after_pruning() {
        let mut m = rational_model();
        m.recompute_complexity(&ComplexityWeights::default());
        let before = m.complexity;
        m.bases.pop();
        m.coefficients.pop();
        m.recompute_complexity(&ComplexityWeights::default());
        assert!(m.complexity < before);
    }

    #[test]
    fn used_variables_deduplicates() {
        let m = rational_model();
        assert_eq!(m.used_variables(), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "intercept")]
    fn coefficient_count_enforced() {
        let _ = Model::new(
            vec![BasisFunction::from_vc(VarCombo::single(1, 0, 1))],
            vec![1.0],
            WeightConfig::default(),
        );
    }

    #[test]
    fn serde_round_trip() {
        let m = rational_model();
        let s = serde_json::to_string(&m).unwrap();
        let back: Model = serde_json::from_str(&s).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn simplified_folds_constant_bases_into_intercept() {
        use crate::expr::{OpApplication, UnaryOp, WeightedSum};
        let cfg = WeightConfig::default();
        // bases: {x0, sqrt(9) (a pure constant)} with coefficients 2 and 4.
        let constant_basis = BasisFunction::from_op(
            1,
            OpApplication::Unary {
                op: UnaryOp::Sqrt,
                arg: WeightedSum::constant(crate::expr::Weight::from_value(9.0, &cfg)),
            },
        );
        let m = Model::new(
            vec![
                BasisFunction::from_vc(VarCombo::single(1, 0, 1)),
                constant_basis,
            ],
            vec![1.0, 2.0, 4.0],
            cfg,
        );
        let s = m.simplified(&ComplexityWeights::default());
        assert_eq!(s.n_bases(), 1);
        // intercept: 1 + 4·3 = 13.
        assert!((s.coefficients[0] - 13.0).abs() < 1e-6);
        for x in [0.5, 2.0, 7.0] {
            let a = m.predict_one(&[x]);
            let b = s.predict_one(&[x]);
            assert!((a - b).abs() < 1e-6 * a.abs().max(1.0));
        }
        assert!(s.complexity < m.complexity + 1e-12 || m.complexity == 0.0);
    }

    #[test]
    fn simplified_drops_zero_coefficient_bases() {
        let m = rational_model();
        let mut m2 = m.clone();
        m2.coefficients[1] = 0.0;
        let s = m2.simplified(&ComplexityWeights::default());
        assert_eq!(s.n_bases(), 1);
        assert!((s.predict_one(&[2.0, 3.0]) - m2.predict_one(&[2.0, 3.0])).abs() < 1e-9);
    }

    #[test]
    fn sensitivities_match_analytic_derivatives() {
        // y = 1 + 2·x0 − 3/x1: ∂y/∂x0 = 2, ∂y/∂x1 = 3/x1².
        let m = rational_model();
        let x = [2.0, 3.0];
        let s = m.sensitivities(&x, 1e-6);
        assert!((s[0] - 2.0).abs() < 1e-6);
        assert!((s[1] - 3.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn relative_sensitivities_are_dimensionless_elasticities() {
        // y = c·x^2 has elasticity exactly 2 everywhere.
        let m = Model::new(
            vec![BasisFunction::from_vc(VarCombo::single(1, 0, 2))],
            vec![0.0, 5.0],
            WeightConfig::default(),
        );
        let e = m.relative_sensitivities(&[3.0], 1e-6);
        assert!((e[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn min_vars_is_one_past_highest_used() {
        assert_eq!(rational_model().min_vars(), 2);
        let constant = Model::new(vec![], vec![4.0], WeightConfig::default());
        assert_eq!(constant.min_vars(), 0);
    }

    #[test]
    fn metrics_builder_sets_fields() {
        let m = rational_model().with_metrics(0.05, 22.0);
        assert_eq!(m.train_error, 0.05);
        assert_eq!(m.complexity, 22.0);
        assert_eq!(m.test_error, None);
    }
}
