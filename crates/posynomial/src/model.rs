use serde::{Deserialize, Serialize};

use caffeine_doe::Dataset;
use caffeine_linalg::stats;

/// One monomial term `c · Π x_i^{e_i}` with integer exponents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonomialTerm {
    /// Coefficient (`> 0` in a fitted posynomial).
    pub coefficient: f64,
    /// One integer exponent per design variable.
    pub exponents: Vec<i32>,
}

impl MonomialTerm {
    /// Evaluates the monomial (without coefficient) at a point.
    pub fn monomial_value(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.exponents.len());
        let mut acc = 1.0;
        for (&xi, &e) in x.iter().zip(self.exponents.iter()) {
            if e != 0 {
                acc *= xi.powi(e);
            }
        }
        acc
    }
}

/// A fitted posynomial model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PosynomialModel {
    /// The active terms (zero-coefficient template entries are dropped).
    pub terms: Vec<MonomialTerm>,
    /// `true` when the model was fit on `−y` because the target is
    /// predominantly negative (posynomials are positive-valued).
    pub negated: bool,
    /// Variable names, for display.
    pub var_names: Vec<String>,
}

impl PosynomialModel {
    /// Predicts one design point.
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        let mut y = 0.0;
        for t in &self.terms {
            y += t.coefficient * t.monomial_value(x);
        }
        if self.negated {
            -y
        } else {
            y
        }
    }

    /// Predicts a batch of points.
    pub fn predict(&self, points: &[Vec<f64>]) -> Vec<f64> {
        points.iter().map(|x| self.predict_one(x)).collect()
    }

    /// Number of active (nonzero-coefficient) terms — the "dozens of
    /// terms" the paper criticizes.
    pub fn n_terms(&self) -> usize {
        self.terms.len()
    }

    /// The Daems quality measure (relative RMS error with constant `c`;
    /// `qwc`/`qtc` of the paper) on a dataset.
    pub fn relative_rms_error(&self, data: &Dataset, c: f64) -> f64 {
        stats::relative_rms_error(&self.predict(data.points()), data.targets(), c)
    }

    /// Formats the model as a readable sum of monomials.
    pub fn format(&self) -> String {
        if self.terms.is_empty() {
            return "0".to_string();
        }
        let sign = if self.negated { "-(" } else { "" };
        let mut out = String::from(sign);
        for (k, t) in self.terms.iter().enumerate() {
            if k > 0 {
                out.push_str(if t.coefficient >= 0.0 { " + " } else { " - " });
            } else if t.coefficient < 0.0 {
                out.push('-');
            }
            out.push_str(&format!("{:.4e}", t.coefficient.abs()));
            for (i, &e) in t.exponents.iter().enumerate() {
                if e == 0 {
                    continue;
                }
                let name = self
                    .var_names
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| format!("x{i}"));
                if e == 1 {
                    out.push_str(&format!("*{name}"));
                } else {
                    out.push_str(&format!("*{name}^{e}"));
                }
            }
        }
        if self.negated {
            out.push(')');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PosynomialModel {
        PosynomialModel {
            terms: vec![
                MonomialTerm {
                    coefficient: 2.0,
                    exponents: vec![1, 0],
                },
                MonomialTerm {
                    coefficient: 3.0,
                    exponents: vec![0, -1],
                },
            ],
            negated: false,
            var_names: vec!["a".into(), "b".into()],
        }
    }

    #[test]
    fn prediction_matches_hand_computation() {
        let m = model();
        assert!((m.predict_one(&[2.0, 3.0]) - (4.0 + 1.0)).abs() < 1e-12);
        assert_eq!(m.predict(&[vec![1.0, 1.0]]), vec![5.0]);
        assert_eq!(m.n_terms(), 2);
    }

    #[test]
    fn negated_model_flips_sign() {
        let mut m = model();
        m.negated = true;
        assert!((m.predict_one(&[2.0, 3.0]) + 5.0).abs() < 1e-12);
    }

    #[test]
    fn quality_measure_is_zero_on_perfect_fit() {
        let m = model();
        let xs = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        let ys = m.predict(&xs);
        let data = Dataset::new(vec!["a".into(), "b".into()], xs, ys).unwrap();
        assert_eq!(m.relative_rms_error(&data, 0.0), 0.0);
    }

    #[test]
    fn format_shows_terms_and_exponents() {
        let s = model().format();
        assert!(s.contains("*a"), "s = {s}");
        assert!(s.contains("b^-1"), "s = {s}");
        let mut m = model();
        m.negated = true;
        assert!(m.format().starts_with("-("));
        m.terms.clear();
        assert_eq!(m.format(), "0");
    }

    #[test]
    fn serde_round_trip() {
        let m = model();
        let s = serde_json::to_string(&m).unwrap();
        let back: PosynomialModel = serde_json::from_str(&s).unwrap();
        assert_eq!(m, back);
    }
}
