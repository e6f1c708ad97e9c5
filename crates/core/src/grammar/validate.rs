//! Dynamic validation of canonical-form constraints.
//!
//! The typed tree of [`crate::expr`] guarantees the grammar's *structure*;
//! this module checks the residual constraints a [`GrammarConfig`] imposes:
//! enabled operator sets, exponent bounds and sign policy, depth budget,
//! variable count, and the `2ARGS` rule that a binary operator may have at
//! most one bare-constant argument.
//!
//! These checks back the property tests that prove every evolutionary
//! operator is *closed* over the grammar.

use crate::expr::{BasisFunction, OpApplication, WeightedSum};
use crate::{CaffeineError, GrammarConfig};

/// Validates a basis function against a grammar configuration.
///
/// # Errors
///
/// [`CaffeineError::InvalidGrammar`] describing the first violated
/// constraint.
// lint: allow(test-only-api) — core's proptests check generated and varied bases against it
pub fn validate_basis(basis: &BasisFunction, grammar: &GrammarConfig) -> Result<(), CaffeineError> {
    if basis.n_vars() != grammar.n_vars {
        return Err(CaffeineError::InvalidGrammar(format!(
            "expression is over {} variables, grammar over {}",
            basis.n_vars(),
            grammar.n_vars
        )));
    }
    if basis.depth() > grammar.max_depth {
        return Err(CaffeineError::InvalidGrammar(format!(
            "depth {} exceeds maximum {}",
            basis.depth(),
            grammar.max_depth
        )));
    }
    if basis.is_trivial() {
        return Err(CaffeineError::InvalidGrammar(
            "basis function is the trivial constant 1".into(),
        ));
    }
    validate_rec(basis, grammar)
}

fn validate_rec(basis: &BasisFunction, grammar: &GrammarConfig) -> Result<(), CaffeineError> {
    validate_vc(basis, grammar)?;
    for f in &basis.factors {
        validate_op(f, grammar)?;
    }
    Ok(())
}

fn validate_vc(basis: &BasisFunction, grammar: &GrammarConfig) -> Result<(), CaffeineError> {
    for &e in basis.vc.exponents().iter() {
        if e.abs() > grammar.max_exponent {
            return Err(CaffeineError::InvalidGrammar(format!(
                "exponent {e} exceeds maximum {}",
                grammar.max_exponent
            )));
        }
        if e < 0 && !grammar.negative_exponents {
            return Err(CaffeineError::InvalidGrammar(
                "negative exponent in a positive-only (polynomial) grammar".into(),
            ));
        }
    }
    if basis.vc.n_vars() != grammar.n_vars {
        return Err(CaffeineError::InvalidGrammar(
            "variable combo has wrong dimensionality".into(),
        ));
    }
    Ok(())
}

fn validate_op(op: &OpApplication, grammar: &GrammarConfig) -> Result<(), CaffeineError> {
    match op {
        OpApplication::Unary { op, arg } => {
            if !grammar.unary_ops.contains(op) {
                return Err(CaffeineError::InvalidGrammar(format!(
                    "unary operator `{}` is not enabled",
                    op.name()
                )));
            }
            validate_sum(arg, grammar)
        }
        OpApplication::Binary { op, args } => {
            if !grammar.binary_ops.contains(op) {
                return Err(CaffeineError::InvalidGrammar(format!(
                    "binary operator `{}` is not enabled",
                    op.name()
                )));
            }
            if args.left.is_constant() && args.right.is_constant() {
                return Err(CaffeineError::InvalidGrammar(format!(
                    "both arguments of `{}` are bare constants (2ARGS violation)",
                    op.name()
                )));
            }
            validate_sum(&args.left, grammar)?;
            validate_sum(&args.right, grammar)
        }
        OpApplication::Lte(l) => {
            match &l.cond {
                None if !grammar.lte_zero => {
                    return Err(CaffeineError::InvalidGrammar(
                        "lte(test, 0, ...) form is not enabled".into(),
                    ));
                }
                Some(_) if !grammar.lte => {
                    return Err(CaffeineError::InvalidGrammar(
                        "lte(test, cond, ...) form is not enabled".into(),
                    ));
                }
                _ => {}
            }
            validate_sum(&l.test, grammar)?;
            if let Some(c) = &l.cond {
                validate_sum(c, grammar)?;
            }
            validate_sum(&l.if_less, grammar)?;
            validate_sum(&l.otherwise, grammar)
        }
    }
}

fn validate_sum(sum: &WeightedSum, grammar: &GrammarConfig) -> Result<(), CaffeineError> {
    for t in &sum.terms {
        validate_rec(&t.term, grammar)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{
        BinaryArgs, BinaryOp, UnaryOp, VarCombo, Weight, WeightConfig, WeightedTerm,
    };

    fn w(v: f64) -> Weight {
        Weight::from_value(v, &WeightConfig::default())
    }

    #[test]
    fn valid_tree_passes() {
        let g = GrammarConfig::paper_full(2);
        let b = BasisFunction::from_vc(VarCombo::from_exponents(vec![1, -1]));
        assert!(validate_basis(&b, &g).is_ok());
    }

    #[test]
    fn wrong_dimensionality_fails() {
        let g = GrammarConfig::paper_full(3);
        let b = BasisFunction::from_vc(VarCombo::from_exponents(vec![1, -1]));
        assert!(validate_basis(&b, &g).is_err());
    }

    #[test]
    fn trivial_basis_fails() {
        let g = GrammarConfig::paper_full(2);
        let b = BasisFunction::from_vc(VarCombo::identity(2));
        assert!(validate_basis(&b, &g).is_err());
    }

    #[test]
    fn oversized_exponent_fails() {
        let g = GrammarConfig::paper_full(2);
        let b = BasisFunction::from_vc(VarCombo::from_exponents(vec![99, 0]));
        assert!(validate_basis(&b, &g).is_err());
    }

    #[test]
    fn negative_exponent_fails_in_polynomial_grammar() {
        let g = GrammarConfig::polynomial(2);
        let b = BasisFunction::from_vc(VarCombo::from_exponents(vec![-1, 0]));
        assert!(validate_basis(&b, &g).is_err());
        let ok = BasisFunction::from_vc(VarCombo::from_exponents(vec![2, 0]));
        assert!(validate_basis(&ok, &g).is_ok());
    }

    #[test]
    fn disabled_operator_fails() {
        let mut g = GrammarConfig::paper_full(1);
        g.unary_ops.retain(|op| *op != UnaryOp::Sin);
        let b = BasisFunction::from_op(
            1,
            OpApplication::Unary {
                op: UnaryOp::Sin,
                arg: WeightedSum {
                    offset: w(0.0),
                    terms: vec![WeightedTerm {
                        weight: w(1.0),
                        term: BasisFunction::from_vc(VarCombo::single(1, 0, 1)),
                    }],
                },
            },
        );
        assert!(validate_basis(&b, &g).is_err());
    }

    #[test]
    fn both_constant_binary_args_fail() {
        let g = GrammarConfig::paper_full(1);
        let b = BasisFunction::from_op(
            1,
            OpApplication::Binary {
                op: BinaryOp::Pow,
                args: BinaryArgs {
                    left: WeightedSum::constant(w(2.0)),
                    right: WeightedSum::constant(w(3.0)),
                },
            },
        );
        assert!(validate_basis(&b, &g).is_err());
    }

    #[test]
    fn lte_forms_respect_switches() {
        let mut g = GrammarConfig::paper_full(1);
        g.lte = false;
        let with_cond = BasisFunction::from_op(
            1,
            OpApplication::Lte(crate::expr::LteArgs {
                test: Box::new(WeightedSum {
                    offset: w(0.0),
                    terms: vec![WeightedTerm {
                        weight: w(1.0),
                        term: BasisFunction::from_vc(VarCombo::single(1, 0, 1)),
                    }],
                }),
                cond: Some(Box::new(WeightedSum::constant(w(1.0)))),
                if_less: Box::new(WeightedSum::constant(w(0.0))),
                otherwise: Box::new(WeightedSum::constant(w(1.0))),
            }),
        );
        assert!(validate_basis(&with_cond, &g).is_err());
        g.lte = true;
        assert!(validate_basis(&with_cond, &g).is_ok());
    }

    #[test]
    fn depth_budget_enforced() {
        let mut g = GrammarConfig::paper_full(1);
        g.max_depth = 1;
        let deep = BasisFunction::from_op(
            1,
            OpApplication::Unary {
                op: UnaryOp::Abs,
                arg: WeightedSum::constant(w(1.0)),
            },
        );
        assert!(validate_basis(&deep, &g).is_err());
    }
}
