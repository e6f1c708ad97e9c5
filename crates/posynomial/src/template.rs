use serde::{Deserialize, Serialize};

/// A fixed posynomial term template: which monomials are available to the
/// fit. This is exactly the "model template" CAFFEINE dispenses with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TemplateSpec {
    /// Maximum absolute exponent for single-variable terms.
    pub max_single_exponent: i32,
    /// Include two-variable cross terms `x_i·x_j`, `x_i/x_j`, `x_j/x_i`,
    /// `1/(x_i·x_j)`.
    pub cross_terms: bool,
    /// Include the constant term.
    pub constant: bool,
}

impl TemplateSpec {
    /// The order-2 template of the simulation-based posynomial flow:
    /// constant, `x^±1`, `x^±2`, and all pairwise cross terms.
    pub fn order2() -> TemplateSpec {
        TemplateSpec {
            max_single_exponent: 2,
            cross_terms: true,
            constant: true,
        }
    }

    /// Generates the exponent vectors of every template term for `n_vars`
    /// design variables.
    pub fn exponent_vectors(&self, n_vars: usize) -> Vec<Vec<i32>> {
        let mut out = Vec::new();
        if self.constant {
            out.push(vec![0; n_vars]);
        }
        for i in 0..n_vars {
            for mag in 1..=self.max_single_exponent {
                for sign in [1, -1] {
                    let mut e = vec![0; n_vars];
                    e[i] = sign * mag;
                    out.push(e);
                }
            }
        }
        if self.cross_terms {
            for i in 0..n_vars {
                for j in (i + 1)..n_vars {
                    for (ei, ej) in [(1, 1), (1, -1), (-1, 1), (-1, -1)] {
                        let mut e = vec![0; n_vars];
                        e[i] = ei;
                        e[j] = ej;
                        out.push(e);
                    }
                }
            }
        }
        out
    }

    /// Number of terms the template generates for `n_vars` variables.
    pub fn n_terms(&self, n_vars: usize) -> usize {
        let singles = 2 * self.max_single_exponent as usize * n_vars;
        let crosses = if self.cross_terms {
            2 * n_vars * n_vars.saturating_sub(1)
        } else {
            0
        };
        usize::from(self.constant) + singles + crosses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order2_term_count_matches_formula() {
        let t = TemplateSpec::order2();
        for n in [1usize, 2, 5, 13] {
            let vecs = t.exponent_vectors(n);
            assert_eq!(vecs.len(), t.n_terms(n), "n = {n}");
        }
        // 13 vars: 1 + 52 + 312 = 365 terms.
        assert_eq!(t.n_terms(13), 365);
    }

    #[test]
    fn order1_has_no_cross_terms() {
        let t = TemplateSpec {
            max_single_exponent: 1,
            cross_terms: false,
            constant: true,
        };
        let vecs = t.exponent_vectors(3);
        assert!(vecs
            .iter()
            .all(|e| e.iter().filter(|&&v| v != 0).count() <= 1));
        assert_eq!(vecs.len(), 1 + 6);
        assert_eq!(vecs.len(), t.n_terms(3));
    }

    #[test]
    fn all_terms_are_distinct() {
        let t = TemplateSpec::order2();
        let mut vecs = t.exponent_vectors(4);
        let before = vecs.len();
        vecs.sort();
        vecs.dedup();
        assert_eq!(vecs.len(), before);
    }

    #[test]
    fn exponents_respect_bounds() {
        let t = TemplateSpec::order2();
        for e in t.exponent_vectors(5) {
            assert!(e.iter().all(|v| v.abs() <= 2));
        }
    }
}
