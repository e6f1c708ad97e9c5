use std::sync::Arc;

use serde::{Deserialize, Error, Map, Serialize, Value};

use super::ops::powi_small;

/// A `VC` terminal: a *variable combo*, i.e. a rational monomial over the
/// design variables with one integer exponent per variable.
///
/// The paper's example: the vector `[1, 0, −2, 1]` means `x₁·x₄ / x₃²`.
/// Real-valued exponents are deliberately excluded for interpretability.
///
/// # Example
///
/// ```
/// use caffeine_core::expr::VarCombo;
///
/// let vc = VarCombo::from_exponents(vec![1, 0, -2, 1]);
/// assert_eq!(vc.eval(&[2.0, 9.0, 2.0, 3.0]), 2.0 * 3.0 / 4.0);
/// assert_eq!(vc.degree_sum(), 4); // Σ|exp|
/// ```
///
/// The exponents are shared, copy-on-write: cloning a combo (and so a
/// basis function or a whole individual) only bumps a reference count,
/// and [`VarCombo::exponent_mut`] and [`VarCombo::clamp_exponents`] copy
/// the vector only when another combo still shares it. Equal sharing
/// combos compare by pointer first. None of this shows outside: the
/// hash and the JSON form are those of a plain exponent vector.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VarCombo {
    /// `Arc<[i32]>`'s `==` compares the pointers before the values.
    exponents: Arc<[i32]>,
}

/// `{"exponents": [..]}`, as a derived `Vec<i32>` field wrote it (the
/// vendored serde has no `Arc` impls).
impl Serialize for VarCombo {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("exponents".into(), self.exponents[..].to_value());
        Value::Object(m)
    }
}

impl Deserialize for VarCombo {
    fn from_value(v: &Value) -> Result<VarCombo, Error> {
        let exponents: Vec<i32> = serde::get_field(v, "exponents")?;
        Ok(VarCombo::from_exponents(exponents))
    }
}

impl VarCombo {
    /// The identity combo (all exponents zero) over `n_vars` variables.
    pub fn identity(n_vars: usize) -> VarCombo {
        VarCombo::from_exponents(vec![0; n_vars])
    }

    /// A single-variable combo `x_var^exp`.
    ///
    /// # Panics
    ///
    /// Panics when `var >= n_vars`.
    pub fn single(n_vars: usize, var: usize, exp: i32) -> VarCombo {
        assert!(var < n_vars, "variable index {var} out of range {n_vars}");
        let mut exponents = vec![0; n_vars];
        exponents[var] = exp;
        VarCombo::from_exponents(exponents)
    }

    /// Builds a combo from an explicit exponent vector.
    pub fn from_exponents(exponents: Vec<i32>) -> VarCombo {
        VarCombo {
            exponents: exponents.into(),
        }
    }

    /// The exponent vector.
    pub fn exponents(&self) -> &[i32] {
        &self.exponents
    }

    /// Mutable access to one exponent; copies the exponents first when
    /// another combo shares them.
    ///
    /// # Panics
    ///
    /// Panics when `var` is out of range.
    pub fn exponent_mut(&mut self, var: usize) -> &mut i32 {
        &mut Arc::make_mut(&mut self.exponents)[var]
    }

    /// Number of design variables.
    pub fn n_vars(&self) -> usize {
        self.exponents.len()
    }

    /// `true` when every exponent is zero (the combo is the constant 1).
    pub fn is_identity(&self) -> bool {
        self.exponents.iter().all(|&e| e == 0)
    }

    /// Sum of absolute exponents, `Σ_dim |vc(dim)|` — the quantity the
    /// complexity measure weights with `w_vc`.
    pub fn degree_sum(&self) -> u32 {
        self.exponents.iter().map(|e| e.unsigned_abs()).sum()
    }

    /// Evaluates the monomial at a design point.
    ///
    /// Negative exponents of a zero coordinate produce infinities, which
    /// the fitness layer treats as infeasible — no silent protection.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != n_vars` (debug builds).
    #[inline]
    pub fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.exponents.len());
        let mut acc = 1.0;
        for (&xi, &e) in x.iter().zip(self.exponents.iter()) {
            if e != 0 {
                // Bit-identical to `xi.powi(e)` (see `powi_small`), minus
                // the out-of-line call for the common small exponents.
                acc *= powi_small(xi, e);
            }
        }
        acc
    }

    /// Clamps every exponent into `[−max_exp, max_exp]`.
    pub fn clamp_exponents(&mut self, max_exp: i32) {
        self.map_exponents(|e| e.clamp(-max_exp, max_exp));
    }

    /// Replaces every exponent `e` by `f(e)`. Copies the exponents only
    /// when some exponent changes and another combo shares them.
    pub(crate) fn map_exponents(&mut self, f: impl Fn(i32) -> i32) {
        if self.exponents.iter().all(|&e| f(e) == e) {
            return;
        }
        for e in Arc::make_mut(&mut self.exponents) {
            *e = f(*e);
        }
    }

    /// One-point crossover of two exponent vectors (a VC operator from the
    /// paper). Returns the two children.
    ///
    /// # Panics
    ///
    /// Panics when the vectors have different lengths or `cut` is out of
    /// range.
    pub fn one_point_crossover(&self, other: &VarCombo, cut: usize) -> (VarCombo, VarCombo) {
        assert_eq!(self.n_vars(), other.n_vars(), "length mismatch");
        assert!(cut <= self.n_vars(), "cut out of range");
        let mut a = self.exponents.to_vec();
        let mut b = other.exponents.to_vec();
        for i in cut..a.len() {
            std::mem::swap(&mut a[i], &mut b[i]);
        }
        (VarCombo::from_exponents(a), VarCombo::from_exponents(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_evaluates_correctly() {
        // [1, 0, -2, 1] = (x1 * x4) / x3²
        let vc = VarCombo::from_exponents(vec![1, 0, -2, 1]);
        let x = [3.0, 100.0, 2.0, 5.0];
        assert_eq!(vc.eval(&x), 3.0 * 5.0 / 4.0);
        assert_eq!(vc.degree_sum(), 4);
    }

    #[test]
    fn identity_is_one_everywhere() {
        let vc = VarCombo::identity(3);
        assert!(vc.is_identity());
        assert_eq!(vc.eval(&[5.0, -2.0, 0.0]), 1.0);
        assert_eq!(vc.degree_sum(), 0);
    }

    #[test]
    fn single_variable_combo() {
        let vc = VarCombo::single(3, 1, -2);
        assert_eq!(vc.eval(&[9.0, 2.0, 7.0]), 0.25);
        assert!(!vc.is_identity());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn single_rejects_bad_index() {
        let _ = VarCombo::single(2, 5, 1);
    }

    #[test]
    fn zero_with_negative_exponent_is_infinite() {
        let vc = VarCombo::single(1, 0, -1);
        assert!(vc.eval(&[0.0]).is_infinite());
    }

    #[test]
    fn clamping_limits_exponents() {
        let mut vc = VarCombo::from_exponents(vec![5, -7, 1]);
        vc.clamp_exponents(2);
        assert_eq!(vc.exponents(), &[2, -2, 1]);
    }

    #[test]
    fn one_point_crossover_swaps_tails() {
        let a = VarCombo::from_exponents(vec![1, 1, 1, 1]);
        let b = VarCombo::from_exponents(vec![-1, -1, -1, -1]);
        let (c, d) = a.one_point_crossover(&b, 2);
        assert_eq!(c.exponents(), &[1, 1, -1, -1]);
        assert_eq!(d.exponents(), &[-1, -1, 1, 1]);
        // Cut at 0 swaps everything; at len() swaps nothing.
        let (e, _) = a.one_point_crossover(&b, 0);
        assert_eq!(e.exponents(), b.exponents());
        let (f, _) = a.one_point_crossover(&b, 4);
        assert_eq!(f.exponents(), a.exponents());
    }

    #[test]
    fn exponent_mut_edits_in_place() {
        let mut vc = VarCombo::identity(2);
        *vc.exponent_mut(1) += 2;
        assert_eq!(vc.exponents(), &[0, 2]);
    }

    #[test]
    fn edits_copy_shared_exponents_and_leave_the_original() {
        let original = VarCombo::from_exponents(vec![3, -1, 0]);
        let mut edited = original.clone();
        *edited.exponent_mut(0) = 1;
        let mut clamped = original.clone();
        clamped.clamp_exponents(2);
        assert_eq!(original.exponents(), &[3, -1, 0]);
        assert_eq!(edited.exponents(), &[1, -1, 0]);
        assert_eq!(clamped.exponents(), &[2, -1, 0]);
        // A clamp that changes nothing keeps sharing.
        let mut untouched = original.clone();
        untouched.clamp_exponents(5);
        assert!(Arc::ptr_eq(&untouched.exponents, &original.exponents));
    }

    #[test]
    fn json_is_a_plain_exponent_vector() {
        let vc = VarCombo::from_exponents(vec![1, 0, -2, 1]);
        let json = serde_json::to_string(&vc).unwrap();
        assert_eq!(json, r#"{"exponents":[1,0,-2,1]}"#);
        let back: VarCombo = serde_json::from_str(&json).unwrap();
        assert_eq!(back, vc);
        assert!(serde_json::from_str::<VarCombo>(r#"{"exponent":[1]}"#).is_err());
    }
}
