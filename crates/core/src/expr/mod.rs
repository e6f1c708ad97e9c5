//! The canonical functional form expression trees.
//!
//! A CAFFEINE model is
//!
//! ```text
//! y ≈ a₀ + a₁·f₁(x) + … + a_k·f_k(x)
//! ```
//!
//! where the linear coefficients `a_i` are learned by least squares and
//! each basis function `f_j` is constrained by the paper's grammar:
//!
//! ```text
//! REPVC  => 'VC' | REPVC '*' REPOP | REPOP
//! REPOP  => REPOP '*' REPOP | 1OP '(' 'W' '+' REPADD ')'
//!         | 2OP '(' 2ARGS ')' | ...
//! 2ARGS  => 'W' '+' REPADD ',' MAYBEW | MAYBEW ',' 'W' '+' REPADD
//! MAYBEW => 'W' | 'W' '+' REPADD
//! REPADD => 'W' '*' REPVC | REPADD '+' REPADD
//! ```
//!
//! Rather than manipulating generic parse trees and re-validating them
//! against the grammar, this module encodes the grammar as Rust types:
//!
//! * [`BasisFunction`] — a `REPVC` node: an optional variable combo times
//!   a product of operator applications;
//! * [`OpApplication`] — a `REPOP` node;
//! * [`WeightedSum`] — a `'W' '+' REPADD` node: an offset weight plus a sum
//!   of weighted product terms;
//! * [`VarCombo`] — a `VC` terminal: one integer exponent per variable;
//! * [`Weight`] — a `W` terminal with the paper's logarithmic mapping.
//!
//! Every value of these types *is* a canonical-form expression, so all the
//! evolutionary operators are closed over the grammar by construction.
//! [`validate`](crate::grammar::validate) performs the residual dynamic
//! checks that the type system cannot express (exponent bounds, depth,
//! enabled operator sets, the 2ARGS not-both-constant rule).

mod compile;
mod complexity;
mod eval;
mod format;
mod ops;
mod simplify;
mod tree;
mod vc;
mod vm;
mod weight;

pub use compile::Tape;
pub use complexity::{complexity, n_nodes, vc_cost, ComplexityWeights};
pub use eval::{eval_basis, eval_basis_all, EvalContext};
pub use format::{format_basis, format_model, FormatOptions};
pub use ops::{powi_small, BinaryOp, UnaryOp};
pub use simplify::{constant_value, is_constant_basis, prune_zero_terms, strip_constant_factors};
pub(crate) use tree::{bases_bits_eq, bases_bits_key};
pub use tree::{BasisFunction, BinaryArgs, LteArgs, OpApplication, WeightedSum, WeightedTerm};
pub use vc::VarCombo;
pub use vm::{TapeVm, LANE_WIDTH};
pub use weight::{cauchy_gamma_default, cauchy_sample, Weight, WeightConfig};
