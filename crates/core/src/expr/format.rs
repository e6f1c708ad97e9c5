//! Human-readable formatting of canonical-form expressions, in the style
//! of the paper's Tables I and II (e.g.
//! `90.5 + 190.6 * id1 / vsg1 + 22.2 * id2 / vds2`).

use super::tree::{BasisFunction, OpApplication, WeightedSum};
use super::weight::WeightConfig;

/// Formatting options.
#[derive(Debug, Clone)]
pub struct FormatOptions {
    /// Variable names, one per design variable (falls back to `x{i}`).
    pub var_names: Vec<String>,
    /// Weight interpretation parameters.
    pub weights: WeightConfig,
    /// Significant digits for numeric constants.
    pub digits: usize,
}

impl FormatOptions {
    /// Options with explicit variable names.
    pub fn with_names(var_names: Vec<String>) -> FormatOptions {
        FormatOptions {
            var_names,
            weights: WeightConfig::default(),
            digits: 4,
        }
    }

    fn var(&self, i: usize) -> String {
        self.var_names
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("x{i}"))
    }

    fn num(&self, v: f64) -> String {
        if v == 0.0 {
            return "0".to_string();
        }
        let mag = v.abs();
        if (1e-3..1e5).contains(&mag) {
            let s = format!("{:.*}", self.digits, v);
            // Trim trailing zeros but keep at least one decimal digit away.
            let trimmed = s.trim_end_matches('0').trim_end_matches('.');
            trimmed.to_string()
        } else {
            format!("{:.*e}", self.digits.saturating_sub(2), v)
        }
    }
}

/// Formats a full model `a0 + a1·f1 + …` with its learned coefficients
/// (`coefficients[0]` is the intercept).
///
/// # Panics
///
/// Panics when `coefficients.len() != bases.len() + 1`.
pub fn format_model(bases: &[BasisFunction], coefficients: &[f64], opts: &FormatOptions) -> String {
    assert_eq!(
        coefficients.len(),
        bases.len() + 1,
        "need one coefficient per basis plus the intercept"
    );
    let mut out = opts.num(coefficients[0]);
    for (b, &c) in bases.iter().zip(&coefficients[1..]) {
        if c == 0.0 {
            continue;
        }
        let term = format_basis(b, opts);
        let mag = opts.num(c.abs());
        if c >= 0.0 {
            out.push_str(&format!(" + {mag} * {term}"));
        } else {
            out.push_str(&format!(" - {mag} * {term}"));
        }
    }
    out
}

/// Formats one basis function as a product of its VC and operator factors.
pub fn format_basis(basis: &BasisFunction, opts: &FormatOptions) -> String {
    let mut parts: Vec<String> = Vec::new();
    if !basis.vc.is_identity() {
        parts.push(format_vc(basis, opts));
    }
    for f in &basis.factors {
        parts.push(format_op(f, opts));
    }
    if parts.is_empty() {
        "1".to_string()
    } else {
        parts.join(" * ")
    }
}

/// Formats a variable combo as `num / den`, e.g. `(id1*id2) / vgs2^2`.
fn format_vc(basis: &BasisFunction, opts: &FormatOptions) -> String {
    let mut num: Vec<String> = Vec::new();
    let mut den: Vec<String> = Vec::new();
    for (i, &e) in basis.vc.exponents().iter().enumerate() {
        let target = if e > 0 {
            &mut num
        } else if e < 0 {
            &mut den
        } else {
            continue;
        };
        let name = opts.var(i);
        if e.abs() == 1 {
            target.push(name);
        } else {
            target.push(format!("{name}^{}", e.abs()));
        }
    }
    let wrap = |v: &[String]| -> String {
        match v.len() {
            0 => "1".to_string(),
            1 => v[0].clone(),
            _ => format!("({})", v.join("*")),
        }
    };
    if den.is_empty() {
        wrap(&num)
    } else {
        format!("{} / {}", wrap(&num), wrap(&den))
    }
}

fn format_op(op: &OpApplication, opts: &FormatOptions) -> String {
    match op {
        OpApplication::Unary { op, arg } => {
            format!("{}({})", op.name(), format_sum(arg, opts))
        }
        OpApplication::Binary { op, args } => format!(
            "{}({}, {})",
            op.name(),
            format_sum(&args.left, opts),
            format_sum(&args.right, opts)
        ),
        OpApplication::Lte(l) => {
            let cond = match &l.cond {
                Some(c) => format_sum(c, opts),
                None => "0".to_string(),
            };
            format!(
                "lte({}, {}, {}, {})",
                format_sum(&l.test, opts),
                cond,
                format_sum(&l.if_less, opts),
                format_sum(&l.otherwise, opts)
            )
        }
    }
}

fn format_sum(sum: &WeightedSum, opts: &FormatOptions) -> String {
    let offset = sum.offset.value(&opts.weights);
    let mut out = String::new();
    let mut first = true;
    if offset != 0.0 || sum.terms.is_empty() {
        out.push_str(&opts.num(offset));
        first = false;
    }
    for t in &sum.terms {
        let w = t.weight.value(&opts.weights);
        if w == 0.0 {
            continue;
        }
        let term = format_basis(&t.term, opts);
        if first {
            if w < 0.0 {
                out.push_str(&format!("-{} * {term}", opts.num(w.abs())));
            } else {
                out.push_str(&format!("{} * {term}", opts.num(w)));
            }
            first = false;
        } else if w < 0.0 {
            out.push_str(&format!(" - {} * {term}", opts.num(w.abs())));
        } else {
            out.push_str(&format!(" + {} * {term}", opts.num(w)));
        }
    }
    if out.is_empty() {
        "0".to_string()
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{
        BinaryArgs, BinaryOp, OpApplication, UnaryOp, VarCombo, Weight, WeightedTerm,
    };

    fn opts() -> FormatOptions {
        FormatOptions::with_names(vec!["id1".into(), "vsg1".into(), "id2".into()])
    }

    fn w(v: f64) -> Weight {
        Weight::from_value(v, &WeightConfig::default())
    }

    #[test]
    fn model_formats_like_the_paper_tables() {
        let b1 = BasisFunction::from_vc(VarCombo::from_exponents(vec![1, -1, 0]));
        let b2 = BasisFunction::from_vc(VarCombo::from_exponents(vec![0, 0, 1]));
        let s = format_model(&[b1, b2], &[90.5, 190.6, 22.2], &opts());
        assert_eq!(s, "90.5 + 190.6 * id1 / vsg1 + 22.2 * id2");
    }

    #[test]
    fn negative_coefficients_render_with_minus() {
        let b = BasisFunction::from_vc(VarCombo::from_exponents(vec![0, -1, 0]));
        let s = format_model(&[b], &[91.1, -1.14], &opts());
        assert_eq!(s, "91.1 - 1.14 * 1 / vsg1");
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let b = BasisFunction::from_vc(VarCombo::from_exponents(vec![1, 0, 0]));
        let s = format_model(&[b], &[1.0, 0.0], &opts());
        assert_eq!(s, "1");
    }

    #[test]
    fn vc_groups_numerator_and_denominator() {
        let b = BasisFunction::from_vc(VarCombo::from_exponents(vec![1, -2, 1]));
        let s = format_basis(&b, &opts());
        assert_eq!(s, "(id1*id2) / vsg1^2");
    }

    #[test]
    fn unary_op_formats_with_sum_argument() {
        let op = OpApplication::Unary {
            op: UnaryOp::Ln,
            arg: WeightedSum {
                offset: w(2.0),
                terms: vec![WeightedTerm {
                    weight: w(3.0),
                    term: BasisFunction::from_vc(VarCombo::from_exponents(vec![1, 0, 0])),
                }],
            },
        };
        let b = BasisFunction::from_op(3, op);
        let s = format_basis(&b, &opts());
        assert_eq!(s, "ln(2 + 3 * id1)");
    }

    #[test]
    fn binary_and_lte_render() {
        let p = OpApplication::Binary {
            op: BinaryOp::Pow,
            args: BinaryArgs {
                left: WeightedSum {
                    offset: Weight::zero(),
                    terms: vec![WeightedTerm {
                        weight: w(1.0),
                        term: BasisFunction::from_vc(VarCombo::from_exponents(vec![1, 0, 0])),
                    }],
                },
                right: WeightedSum::constant(w(2.0)),
            },
        };
        let s = format_basis(&BasisFunction::from_op(3, p), &opts());
        assert_eq!(s, "pow(1 * id1, 2)");

        let l = OpApplication::Lte(crate::expr::LteArgs {
            test: Box::new(WeightedSum::constant(w(1.0))),
            cond: None,
            if_less: Box::new(WeightedSum::constant(w(2.0))),
            otherwise: Box::new(WeightedSum::constant(w(3.0))),
        });
        let s = format_basis(&BasisFunction::from_op(3, l), &opts());
        assert_eq!(s, "lte(1, 0, 2, 3)");
    }

    #[test]
    fn large_and_small_magnitudes_use_scientific_notation() {
        let b = BasisFunction::from_vc(VarCombo::from_exponents(vec![1, 0, 0]));
        let s = format_model(&[b], &[0.0, 2.36e7], &opts());
        assert!(s.contains("e7") || s.contains("e+7"), "s = {s}");
    }

    #[test]
    fn trivial_basis_formats_as_one() {
        let b = BasisFunction::from_vc(VarCombo::identity(3));
        assert_eq!(format_basis(&b, &opts()), "1");
    }

    #[test]
    fn missing_names_fall_back_to_x() {
        let o = FormatOptions::with_names(Vec::new());
        let b = BasisFunction::from_vc(VarCombo::from_exponents(vec![0, 1]));
        assert_eq!(format_basis(&b, &o), "x1");
    }
}
