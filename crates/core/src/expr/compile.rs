//! Compilation of basis functions to flat postfix instruction tapes.
//!
//! The tree-walk interpreter in [`super::eval`] visits every expression
//! node once *per design point*: recursion, enum dispatch, and weight
//! decoding all sit inside the innermost loop. This module lowers a
//! [`BasisFunction`] once into a [`Tape`] — a flat postfix program over
//! fixed-width lane chunks of points (see [`super::vm`]) — so the
//! per-node overhead is amortized over whole chunks and the data walks
//! contiguous [`PointMatrix`](caffeine_doe::PointMatrix) variable slices.
//!
//! The tape matches the interpreter by construction — **bit-identical**
//! for every non-NaN result, NaN-for-NaN otherwise (NaN sign/payload may
//! differ once the optimizer vectorizes the lane loops; see
//! [`super::vm`]). The property tests in `tests/tape_oracle.rs` enforce
//! this over random grammar trees:
//!
//! * weight terminals are decoded once at compile time, and zero-weight
//!   terms are skipped exactly where [`super::eval`] skips them;
//! * the interpreter's per-point early exit on a non-finite partial
//!   product becomes a per-lane mask ([`Instr::MulFactor`]): a lane that
//!   went non-finite stops being multiplied. The exit fires *after* a
//!   multiplication, so the first factor is always multiplied in — a
//!   non-finite VC value times a zero factor must still produce NaN;
//! * `lte` evaluates both branches lane-wise and selects per lane —
//!   branch evaluation is pure, so the selected values are the ones the
//!   interpreter would have produced;
//! * at the root level, once *every* lane of a chunk's accumulator is
//!   non-finite, the remaining instructions can no longer change any lane
//!   and the chunk finishes early — the bail-out that keeps garbage
//!   trees cheap.
//!
//! A tape is a pure function of its basis and the context, so bitwise-
//! equal bases (same structure, weights compared by `to_bits`) compile to
//! equal tapes and evaluate to bitwise-equal columns, which is what makes
//! the basis-keyed column cache in [`crate::fit`] safe for deterministic
//! runs.

use super::eval::EvalContext;
use super::ops::{BinaryOp, UnaryOp};
use super::tree::{BasisFunction, OpApplication, WeightedSum};

/// One postfix instruction. Operands live on a stack of lane chunks.
#[derive(Debug, Clone, Copy)]
pub(super) enum Instr {
    /// Push a chunk filled with a constant.
    PushConst(f64),
    /// Push the monomial chunk `Π x_var^exp` over
    /// `vc_ops[start..start + len]`.
    PushVc { start: u32, len: u32 },
    /// Pop the term chunk `t`; `top[i] += w · t[i]`.
    AddTerm(f64),
    /// Pop the factor chunk `f` and multiply it into the accumulator.
    ///
    /// The interpreter's early exit fires only *after* a factor
    /// multiplication, so the first factor of a basis multiplies
    /// unconditionally even into a non-finite VC value (`inf · 0 = NaN`
    /// matters); later factors (`masked`) only touch lanes still finite.
    /// For `root` factors, once no live lane remains finite the chunk is
    /// final and its evaluation bails out early.
    MulFactor { masked: bool, root: bool },
    /// Apply a unary operator to the top chunk in place.
    Unary(UnaryOp),
    /// Pop the right chunk `r`; `top[i] = op(top[i], r[i])`.
    Binary(BinaryOp),
    /// Conditional select. Stack (bottom→top): `test`, `cond` when
    /// `has_cond`, `if_less`, `otherwise`; result replaces `test`.
    Lte { has_cond: bool },
}

impl PartialEq for Instr {
    fn eq(&self, other: &Instr) -> bool {
        // Constants compare bitwise: equal tapes must evaluate
        // bit-identically, and 0.0 == -0.0 under `f64::eq` would conflate
        // columns that differ in zero signs.
        match (self, other) {
            (Instr::PushConst(a), Instr::PushConst(b)) => a.to_bits() == b.to_bits(),
            (Instr::PushVc { start: s1, len: l1 }, Instr::PushVc { start: s2, len: l2 }) => {
                s1 == s2 && l1 == l2
            }
            (Instr::AddTerm(a), Instr::AddTerm(b)) => a.to_bits() == b.to_bits(),
            (
                Instr::MulFactor {
                    masked: m1,
                    root: r1,
                },
                Instr::MulFactor {
                    masked: m2,
                    root: r2,
                },
            ) => m1 == m2 && r1 == r2,
            (Instr::Unary(a), Instr::Unary(b)) => a == b,
            (Instr::Binary(a), Instr::Binary(b)) => a == b,
            (Instr::Lte { has_cond: a }, Instr::Lte { has_cond: b }) => a == b,
            _ => false,
        }
    }
}

impl Eq for Instr {}

/// A basis function lowered to a flat postfix program over lane chunks.
///
/// Build one with [`Tape::compile`] (or recycle allocations with
/// [`Tape::compile_into`]) and evaluate it with
/// [`TapeVm::eval`](super::TapeVm::eval). Equality is bitwise — equal
/// tapes are guaranteed to evaluate to bitwise-equal columns.
///
/// # Example
///
/// ```
/// use caffeine_core::expr::{BasisFunction, EvalContext, Tape, TapeVm, VarCombo, WeightConfig};
/// use caffeine_doe::PointMatrix;
///
/// // The monomial basis 1/x0, compiled once, evaluated column-at-a-time
/// // over a whole batch of points.
/// let basis = BasisFunction::from_vc(VarCombo::single(1, 0, -1));
/// let tape = Tape::compile(&basis, &EvalContext::new(WeightConfig::default()));
///
/// let batch = PointMatrix::from_rows(&[vec![2.0], vec![4.0], vec![8.0]]);
/// let mut vm = TapeVm::new();
/// let column = vm.eval(&tape, &batch);
/// assert_eq!(column, vec![0.5, 0.25, 0.125]);
/// # vm.recycle(column); // return the buffer to the VM's pool
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Tape {
    pub(super) instrs: Vec<Instr>,
    /// Flattened `(variable index, exponent)` pairs of every
    /// [`Instr::PushVc`], zero exponents omitted.
    pub(super) vc_ops: Vec<(u32, i32)>,
    /// Deepest operand-stack occupancy any prefix of the program reaches;
    /// derived from `instrs`, so equal tapes always agree on it. The VM
    /// sizes its chunk stack from this, making evaluation panic-free on
    /// stack space.
    pub(super) max_depth: usize,
}

impl Tape {
    /// Lowers a basis function under the given evaluation context (weight
    /// terminals are decoded at compile time).
    pub fn compile(basis: &BasisFunction, ctx: &EvalContext) -> Tape {
        let mut tape = Tape::default();
        tape.compile_into(basis, ctx);
        tape
    }

    /// Re-lowers into this tape, reusing its allocations.
    pub fn compile_into(&mut self, basis: &BasisFunction, ctx: &EvalContext) {
        self.instrs.clear();
        self.vc_ops.clear();
        self.emit_basis(basis, ctx, true);
        self.max_depth = self.simulate_depth();
    }

    /// Simulates the stack effect of every instruction to find the
    /// deepest occupancy the program reaches.
    fn simulate_depth(&self) -> usize {
        let mut cur = 0usize;
        let mut max = 0usize;
        for instr in &self.instrs {
            match *instr {
                Instr::PushConst(_) | Instr::PushVc { .. } => {
                    cur += 1;
                    max = max.max(cur);
                }
                Instr::AddTerm(_) | Instr::MulFactor { .. } | Instr::Binary(_) => cur -= 1,
                Instr::Unary(_) => {}
                Instr::Lte { has_cond } => cur -= if has_cond { 3 } else { 2 },
            }
        }
        max
    }

    /// Number of instructions (diagnostic).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` when the tape holds no instructions (not yet compiled).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    fn emit_basis(&mut self, basis: &BasisFunction, ctx: &EvalContext, root: bool) {
        let start = self.vc_ops.len() as u32;
        for (j, &e) in basis.vc.exponents().iter().enumerate() {
            if e != 0 {
                self.vc_ops.push((j as u32, e));
            }
        }
        let len = self.vc_ops.len() as u32 - start;
        self.instrs.push(Instr::PushVc { start, len });
        for (fi, f) in basis.factors.iter().enumerate() {
            self.emit_op(f, ctx);
            self.instrs.push(Instr::MulFactor {
                masked: fi > 0,
                root,
            });
        }
    }

    fn emit_op(&mut self, op: &OpApplication, ctx: &EvalContext) {
        match op {
            OpApplication::Unary { op, arg } => {
                self.emit_sum(arg, ctx);
                self.instrs.push(Instr::Unary(*op));
            }
            OpApplication::Binary { op, args } => {
                self.emit_sum(&args.left, ctx);
                self.emit_sum(&args.right, ctx);
                self.instrs.push(Instr::Binary(*op));
            }
            OpApplication::Lte(l) => {
                self.emit_sum(&l.test, ctx);
                if let Some(c) = &l.cond {
                    self.emit_sum(c, ctx);
                }
                self.emit_sum(&l.if_less, ctx);
                self.emit_sum(&l.otherwise, ctx);
                self.instrs.push(Instr::Lte {
                    has_cond: l.cond.is_some(),
                });
            }
        }
    }

    fn emit_sum(&mut self, sum: &WeightedSum, ctx: &EvalContext) {
        self.instrs
            .push(Instr::PushConst(sum.offset.value(&ctx.weights)));
        for t in &sum.terms {
            let w = t.weight.value(&ctx.weights);
            // Zero-weight terms are skipped exactly as the interpreter
            // skips them: 0.0 · NaN would otherwise poison the sum.
            if w != 0.0 {
                self.emit_basis(&t.term, ctx, false);
                self.instrs.push(Instr::AddTerm(w));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{
        eval_basis, BinaryArgs, LteArgs, TapeVm, VarCombo, Weight, WeightedSum, WeightedTerm,
    };
    use caffeine_doe::PointMatrix;

    fn ctx() -> EvalContext {
        EvalContext::default()
    }

    fn w(v: f64) -> Weight {
        Weight::from_value(v, &ctx().weights)
    }

    fn assert_matches_interpreter(basis: &BasisFunction, points: &[Vec<f64>]) {
        let pm = PointMatrix::from_rows(points);
        let tape = Tape::compile(basis, &ctx());
        let mut vm = TapeVm::new();
        let col = vm.eval(&tape, &pm);
        for (t, p) in points.iter().enumerate() {
            let reference = eval_basis(basis, p, &ctx());
            assert!(
                reference.to_bits() == col[t].to_bits(),
                "point {t}: interpreter {reference} vs tape {}",
                col[t]
            );
        }
        vm.recycle(col);
    }

    #[test]
    fn lone_vc_matches() {
        let b = BasisFunction::from_vc(VarCombo::from_exponents(vec![2, -1]));
        assert_matches_interpreter(&b, &[vec![3.0, 2.0], vec![0.5, 4.0], vec![-1.0, 0.1]]);
    }

    #[test]
    fn nested_product_matches() {
        // x0 · inv(1 + 2·x1)
        let inv = OpApplication::Unary {
            op: UnaryOp::Inv,
            arg: WeightedSum {
                offset: w(1.0),
                terms: vec![WeightedTerm {
                    weight: w(2.0),
                    term: BasisFunction::from_vc(VarCombo::single(2, 1, 1)),
                }],
            },
        };
        let b = BasisFunction {
            vc: VarCombo::single(2, 0, 1),
            factors: vec![inv],
        };
        assert_matches_interpreter(&b, &[vec![4.0, 0.5], vec![1.0, -0.5], vec![2.0, 0.0]]);
    }

    #[test]
    fn binary_and_lte_match_including_nan() {
        let x0 = || WeightedSum {
            offset: Weight::zero(),
            terms: vec![WeightedTerm {
                weight: w(1.0),
                term: BasisFunction::from_vc(VarCombo::single(1, 0, 1)),
            }],
        };
        let pow = OpApplication::Binary {
            op: BinaryOp::Pow,
            args: BinaryArgs {
                left: x0(),
                right: WeightedSum::constant(w(0.5)),
            },
        };
        // pow(x0, 0.5): NaN for negative x0.
        let b = BasisFunction::from_op(1, pow);
        assert_matches_interpreter(&b, &[vec![4.0], vec![-4.0], vec![0.0]]);

        let lte = OpApplication::Lte(LteArgs {
            test: Box::new(x0()),
            cond: None,
            if_less: Box::new(WeightedSum::constant(w(-1.0))),
            otherwise: Box::new(WeightedSum::constant(w(1.0))),
        });
        let b = BasisFunction::from_op(1, lte);
        assert_matches_interpreter(&b, &[vec![-2.0], vec![0.0], vec![3.0]]);
    }

    #[test]
    fn lte_with_nan_test_yields_nan() {
        // ln(x0) as the lte test goes NaN for x0 < 0.
        let test = WeightedSum {
            offset: Weight::zero(),
            terms: vec![WeightedTerm {
                weight: w(1.0),
                term: BasisFunction::from_op(
                    1,
                    OpApplication::Unary {
                        op: UnaryOp::Ln,
                        arg: WeightedSum {
                            offset: Weight::zero(),
                            terms: vec![WeightedTerm {
                                weight: w(1.0),
                                term: BasisFunction::from_vc(VarCombo::single(1, 0, 1)),
                            }],
                        },
                    },
                ),
            }],
        };
        let lte = OpApplication::Lte(LteArgs {
            test: Box::new(test),
            cond: Some(Box::new(WeightedSum::constant(w(2.0)))),
            if_less: Box::new(WeightedSum::constant(w(10.0))),
            otherwise: Box::new(WeightedSum::constant(w(20.0))),
        });
        let b = BasisFunction::from_op(1, lte);
        assert_matches_interpreter(&b, &[vec![-1.0], vec![1.0], vec![100.0]]);
    }

    #[test]
    fn zero_weight_terms_compile_away() {
        // 1 + 0·(1/x0) wrapped in abs: the zero-weight term must not
        // contribute even at x0 = 0 where it would be infinite.
        let s = WeightedSum {
            offset: w(1.0),
            terms: vec![WeightedTerm {
                weight: Weight::zero(),
                term: BasisFunction::from_vc(VarCombo::single(1, 0, -1)),
            }],
        };
        let b = BasisFunction::from_op(
            1,
            OpApplication::Unary {
                op: UnaryOp::Abs,
                arg: s,
            },
        );
        assert_matches_interpreter(&b, &[vec![0.0], vec![2.0]]);
    }

    #[test]
    fn early_bailout_keeps_column_identical() {
        // 1/x0 · sqrt(x0): at x0 = 0 the first factor is infinite on every
        // lane, so the root bail-out triggers; values must still match the
        // interpreter exactly.
        let inv = OpApplication::Unary {
            op: UnaryOp::Inv,
            arg: WeightedSum {
                offset: Weight::zero(),
                terms: vec![WeightedTerm {
                    weight: w(1.0),
                    term: BasisFunction::from_vc(VarCombo::single(1, 0, 1)),
                }],
            },
        };
        let sqrt = OpApplication::Unary {
            op: UnaryOp::Sqrt,
            arg: WeightedSum {
                offset: Weight::zero(),
                terms: vec![WeightedTerm {
                    weight: w(1.0),
                    term: BasisFunction::from_vc(VarCombo::single(1, 0, 1)),
                }],
            },
        };
        let b = BasisFunction {
            vc: VarCombo::identity(1),
            factors: vec![inv, sqrt],
        };
        assert_matches_interpreter(&b, &[vec![0.0], vec![0.0], vec![0.0]]);
        assert_matches_interpreter(&b, &[vec![0.0], vec![4.0]]);
    }

    #[test]
    fn equal_trees_produce_equal_tapes() {
        let b = BasisFunction {
            vc: VarCombo::single(2, 0, 2),
            factors: vec![OpApplication::Unary {
                op: UnaryOp::Sqrt,
                arg: WeightedSum {
                    offset: w(1.0),
                    terms: vec![WeightedTerm {
                        weight: w(3.0),
                        term: BasisFunction::from_vc(VarCombo::single(2, 1, 1)),
                    }],
                },
            }],
        };
        let t1 = Tape::compile(&b, &ctx());
        let t2 = Tape::compile(&b.clone(), &ctx());
        assert_eq!(t1, t2);

        let mut other = b.clone();
        other.vc = VarCombo::single(2, 1, 2);
        let t3 = Tape::compile(&other, &ctx());
        assert_ne!(t1, t3);
    }

    #[test]
    fn compile_into_reuses_and_matches_fresh_compile() {
        let a = BasisFunction::from_vc(VarCombo::single(1, 0, 2));
        let b = BasisFunction::from_op(
            1,
            OpApplication::Unary {
                op: UnaryOp::Square,
                arg: WeightedSum::constant(w(2.0)),
            },
        );
        let mut tape = Tape::compile(&a, &ctx());
        tape.compile_into(&b, &ctx());
        assert_eq!(tape, Tape::compile(&b, &ctx()));
    }

    #[test]
    fn compiled_depth_bounds_every_prefix() {
        // A nested tree exercising unary, binary, and lte arms: the
        // recorded depth must cover the deepest stack any prefix reaches.
        let lte = OpApplication::Lte(LteArgs {
            test: Box::new(WeightedSum {
                offset: w(0.5),
                terms: vec![WeightedTerm {
                    weight: w(1.0),
                    term: BasisFunction::from_vc(VarCombo::single(2, 0, 1)),
                }],
            }),
            cond: Some(Box::new(WeightedSum::constant(w(2.0)))),
            if_less: Box::new(WeightedSum::constant(w(10.0))),
            otherwise: Box::new(WeightedSum {
                offset: w(0.0),
                terms: vec![WeightedTerm {
                    weight: w(3.0),
                    term: BasisFunction {
                        vc: VarCombo::single(2, 1, 2),
                        factors: vec![OpApplication::Binary {
                            op: BinaryOp::Max,
                            args: BinaryArgs {
                                left: WeightedSum::constant(w(1.0)),
                                right: WeightedSum::constant(w(-1.0)),
                            },
                        }],
                    },
                }],
            }),
        });
        let b = BasisFunction::from_op(2, lte);
        let tape = Tape::compile(&b, &ctx());
        let mut cur = 0usize;
        for instr in &tape.instrs {
            match *instr {
                Instr::PushConst(_) | Instr::PushVc { .. } => cur += 1,
                Instr::AddTerm(_) | Instr::MulFactor { .. } | Instr::Binary(_) => cur -= 1,
                Instr::Unary(_) => {}
                Instr::Lte { has_cond } => cur -= if has_cond { 3 } else { 2 },
            }
            assert!(cur <= tape.max_depth, "prefix exceeds recorded depth");
        }
        assert_eq!(cur, 1, "a full run leaves exactly the result");
        assert!(tape.max_depth >= 4, "lte nesting must deepen the stack");
    }
}
