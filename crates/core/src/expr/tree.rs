use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

use super::ops::{BinaryOp, UnaryOp};
use super::vc::VarCombo;
use super::weight::Weight;

/// A `REPVC` node — one basis function (or nested product term): an
/// optional variable combo multiplied by zero or more nonlinear operator
/// applications.
///
/// The grammar guarantees at least one of the two parts is present for a
/// meaningful term; an empty basis function evaluates to the constant 1
/// and is only used transiently by the evolutionary operators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasisFunction {
    /// The `VC` factor (identity exponents mean "absent").
    pub vc: VarCombo,
    /// The `REPOP` factors, multiplied together.
    pub factors: Vec<OpApplication>,
}

impl BasisFunction {
    /// A basis function that is exactly one variable combo.
    pub fn from_vc(vc: VarCombo) -> BasisFunction {
        BasisFunction {
            vc,
            factors: Vec::new(),
        }
    }

    /// A basis function that is a single operator application (with an
    /// identity VC).
    // lint: allow(test-only-api) — core's unit tests build hand-written bases with it
    pub fn from_op(n_vars: usize, op: OpApplication) -> BasisFunction {
        BasisFunction {
            vc: VarCombo::identity(n_vars),
            factors: vec![op],
        }
    }

    /// `true` when the function is the constant 1 (identity VC, no
    /// factors).
    pub fn is_trivial(&self) -> bool {
        self.vc.is_identity() && self.factors.is_empty()
    }

    /// Number of design variables this expression is defined over.
    pub fn n_vars(&self) -> usize {
        self.vc.n_vars()
    }

    /// Tree depth (a lone VC has depth 1).
    pub fn depth(&self) -> usize {
        1 + self
            .factors
            .iter()
            .map(OpApplication::depth)
            .max()
            .unwrap_or(0)
    }

    /// All variable combos in the tree (the basis's own plus nested ones).
    pub fn collect_vcs(&self) -> Vec<&VarCombo> {
        let mut out = vec![&self.vc];
        for f in &self.factors {
            f.collect_vcs_into(&mut out);
        }
        out
    }

    /// Indices of variables that actually appear (nonzero exponent
    /// anywhere in the tree).
    pub fn used_variables(&self) -> Vec<usize> {
        let mut used = vec![false; self.n_vars()];
        for vc in self.collect_vcs() {
            for (i, &e) in vc.exponents().iter().enumerate() {
                if e != 0 {
                    used[i] = true;
                }
            }
        }
        used.iter()
            .enumerate()
            .filter_map(|(i, &u)| if u { Some(i) } else { None })
            .collect()
    }
}

/// Bitwise identity of expression trees: the same structure, with every
/// weight compared (and hashed) by the bit pattern of its raw value, so
/// `+0.0` and `-0.0` differ and a NaN equals itself. Bitwise-equal trees
/// evaluate to bitwise-equal values under any one context, which is what
/// lets the fitness path reuse an evaluated column or a whole evaluation.
impl BasisFunction {
    /// A deterministic 64-bit key of the tree; [`BasisFunction::bits_eq`]
    /// trees share it. Unequal trees may collide, so a key match must be
    /// confirmed with [`BasisFunction::bits_eq`].
    pub(crate) fn bits_key(&self) -> u64 {
        let mut h = BitsHasher::default();
        self.hash_bits(&mut h);
        h.finish()
    }

    /// `true` when both trees have the same structure and bitwise-equal
    /// weights.
    pub(crate) fn bits_eq(&self, other: &BasisFunction) -> bool {
        self.vc == other.vc
            && self.factors.len() == other.factors.len()
            && self
                .factors
                .iter()
                .zip(&other.factors)
                .all(|(a, b)| a.bits_eq(b))
    }

    fn hash_bits(&self, state: &mut BitsHasher) {
        self.vc.hash(state);
        state.write_usize(self.factors.len());
        for f in &self.factors {
            f.hash_bits(state);
        }
    }
}

/// The [`BasisFunction::bits_key`] of a basis list, in order.
pub(crate) fn bases_bits_key(bases: &[BasisFunction]) -> u64 {
    let mut h = BitsHasher::default();
    h.write_usize(bases.len());
    for b in bases {
        b.hash_bits(&mut h);
    }
    h.finish()
}

/// `true` when two basis lists are [`BasisFunction::bits_eq`] basis by
/// basis.
pub(crate) fn bases_bits_eq(a: &[BasisFunction], b: &[BasisFunction]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bits_eq(y))
}

/// The hasher behind [`BasisFunction::bits_key`]: a multiply-rotate fold
/// of one 64-bit word per field. Fixed, so keys repeat run to run, and
/// cheap, because every cache lookup and every offspring computes one.
#[derive(Default)]
struct BitsHasher(u64);

impl BitsHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for BitsHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl OpApplication {
    fn hash_bits(&self, state: &mut BitsHasher) {
        match self {
            OpApplication::Unary { op, arg } => {
                state.write_u8(0);
                op.hash(state);
                arg.hash_bits(state);
            }
            OpApplication::Binary { op, args } => {
                state.write_u8(1);
                op.hash(state);
                args.left.hash_bits(state);
                args.right.hash_bits(state);
            }
            OpApplication::Lte(l) => {
                state.write_u8(2);
                l.test.hash_bits(state);
                match &l.cond {
                    Some(c) => {
                        state.write_u8(1);
                        c.hash_bits(state);
                    }
                    None => state.write_u8(0),
                }
                l.if_less.hash_bits(state);
                l.otherwise.hash_bits(state);
            }
        }
    }

    fn bits_eq(&self, other: &OpApplication) -> bool {
        match (self, other) {
            (
                OpApplication::Unary { op: o1, arg: a1 },
                OpApplication::Unary { op: o2, arg: a2 },
            ) => o1 == o2 && a1.bits_eq(a2),
            (
                OpApplication::Binary { op: o1, args: a1 },
                OpApplication::Binary { op: o2, args: a2 },
            ) => o1 == o2 && a1.left.bits_eq(&a2.left) && a1.right.bits_eq(&a2.right),
            (OpApplication::Lte(l1), OpApplication::Lte(l2)) => {
                l1.test.bits_eq(&l2.test)
                    && match (&l1.cond, &l2.cond) {
                        (Some(c1), Some(c2)) => c1.bits_eq(c2),
                        (None, None) => true,
                        _ => false,
                    }
                    && l1.if_less.bits_eq(&l2.if_less)
                    && l1.otherwise.bits_eq(&l2.otherwise)
            }
            _ => false,
        }
    }
}

impl WeightedSum {
    fn hash_bits(&self, state: &mut BitsHasher) {
        state.write_u64(self.offset.raw().to_bits());
        state.write_usize(self.terms.len());
        for t in &self.terms {
            state.write_u64(t.weight.raw().to_bits());
            t.term.hash_bits(state);
        }
    }

    fn bits_eq(&self, other: &WeightedSum) -> bool {
        self.offset.raw().to_bits() == other.offset.raw().to_bits()
            && self.terms.len() == other.terms.len()
            && self.terms.iter().zip(&other.terms).all(|(a, b)| {
                a.weight.raw().to_bits() == b.weight.raw().to_bits() && a.term.bits_eq(&b.term)
            })
    }
}

/// A `REPOP` node: one nonlinear operator application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpApplication {
    /// `1OP '(' W '+' REPADD ')'` — a unary operator over a weighted sum.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Its argument.
        arg: WeightedSum,
    },
    /// `2OP '(' 2ARGS ')'` — a binary operator; per the grammar at most
    /// one argument may be a bare constant.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Its two arguments.
        args: BinaryArgs,
    },
    /// `lte(test, cond, ifLess, else)`: evaluates to `ifLess` when
    /// `test ≤ cond`, and to `else` otherwise. The paper's conditional
    /// operator, including the `lte(test, 0, …)` special form
    /// (`cond = None`).
    Lte(LteArgs),
}

/// Arguments of a binary operator application.
///
/// `W + REPADD , MAYBEW` or `MAYBEW , W + REPADD`: each side is a
/// [`WeightedSum`], where a sum with no terms plays the role of the bare
/// constant `W`. The grammar requires that *not both* sides are bare
/// constants; [`crate::grammar::validate`] enforces it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinaryArgs {
    /// Left argument (e.g. the base of `POW`).
    pub left: WeightedSum,
    /// Right argument (e.g. the exponent of `POW`).
    pub right: WeightedSum,
}

/// Arguments of the `lte` conditional.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LteArgs {
    /// The tested expression.
    pub test: Box<WeightedSum>,
    /// The comparison bound; `None` encodes the `lte(test, 0, …)` form.
    pub cond: Option<Box<WeightedSum>>,
    /// Value when `test ≤ cond`.
    pub if_less: Box<WeightedSum>,
    /// Value otherwise.
    pub otherwise: Box<WeightedSum>,
}

impl OpApplication {
    /// Tree depth of this operator application.
    pub fn depth(&self) -> usize {
        1 + match self {
            OpApplication::Unary { arg, .. } => arg.depth(),
            OpApplication::Binary { args, .. } => args.left.depth().max(args.right.depth()),
            OpApplication::Lte(l) => {
                let mut d = l
                    .test
                    .depth()
                    .max(l.if_less.depth())
                    .max(l.otherwise.depth());
                if let Some(c) = &l.cond {
                    d = d.max(c.depth());
                }
                d
            }
        }
    }

    pub(crate) fn collect_vcs_into<'a>(&'a self, out: &mut Vec<&'a VarCombo>) {
        match self {
            OpApplication::Unary { arg, .. } => arg.collect_vcs_into(out),
            OpApplication::Binary { args, .. } => {
                args.left.collect_vcs_into(out);
                args.right.collect_vcs_into(out);
            }
            OpApplication::Lte(l) => {
                l.test.collect_vcs_into(out);
                if let Some(c) = &l.cond {
                    c.collect_vcs_into(out);
                }
                l.if_less.collect_vcs_into(out);
                l.otherwise.collect_vcs_into(out);
            }
        }
    }
}

/// A `'W' '+' REPADD` node: an offset weight plus a weighted sum of
/// product terms. With no terms it degrades to the bare constant `W`
/// (the `MAYBEW` rule).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightedSum {
    /// The offset `W`.
    pub offset: Weight,
    /// The summed `W * REPVC` terms.
    pub terms: Vec<WeightedTerm>,
}

/// One `W '*' REPVC` term of a weighted sum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightedTerm {
    /// The multiplicative weight.
    pub weight: Weight,
    /// The product term (recursively a `REPVC`).
    pub term: BasisFunction,
}

impl WeightedSum {
    /// A bare constant (`MAYBEW` with just `W`).
    pub fn constant(offset: Weight) -> WeightedSum {
        WeightedSum {
            offset,
            terms: Vec::new(),
        }
    }

    /// `true` when the sum is a bare constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Tree depth of this sum.
    pub fn depth(&self) -> usize {
        1 + self.terms.iter().map(|t| t.term.depth()).max().unwrap_or(0)
    }

    pub(crate) fn collect_vcs_into<'a>(&'a self, out: &mut Vec<&'a VarCombo>) {
        for t in &self.terms {
            out.push(&t.term.vc);
            for f in &t.term.factors {
                f.collect_vcs_into(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::WeightConfig;

    fn cfg() -> WeightConfig {
        WeightConfig::default()
    }

    fn w(v: f64) -> Weight {
        Weight::from_value(v, &cfg())
    }

    /// Builds `inv(1 + 2·x0)` over one variable.
    fn sample_op() -> OpApplication {
        OpApplication::Unary {
            op: UnaryOp::Inv,
            arg: WeightedSum {
                offset: w(1.0),
                terms: vec![WeightedTerm {
                    weight: w(2.0),
                    term: BasisFunction::from_vc(VarCombo::single(1, 0, 1)),
                }],
            },
        }
    }

    #[test]
    fn bitwise_identity_tells_signed_zero_weights_apart() {
        let a = BasisFunction::from_op(1, sample_op());
        assert!(a.bits_eq(&a.clone()));
        assert_eq!(a.bits_key(), a.clone().bits_key());

        let with_offset = |raw: f64| {
            let mut b = a.clone();
            let OpApplication::Unary { arg, .. } = &mut b.factors[0] else {
                unreachable!()
            };
            arg.offset = Weight::from_raw(raw, &cfg());
            b
        };
        let (pos, neg) = (with_offset(0.0), with_offset(-0.0));
        // Both offsets interpret to 0.0, and `==` cannot tell them apart.
        assert_eq!(pos, neg);
        assert!(!pos.bits_eq(&neg));
        assert_ne!(pos.bits_key(), neg.bits_key());
        assert!(!a.bits_eq(&BasisFunction::from_vc(VarCombo::single(1, 0, 1))));
    }

    #[test]
    fn trivial_detection() {
        assert!(BasisFunction::from_vc(VarCombo::identity(2)).is_trivial());
        assert!(!BasisFunction::from_vc(VarCombo::single(2, 0, 1)).is_trivial());
        assert!(!BasisFunction::from_op(1, sample_op()).is_trivial());
    }

    #[test]
    fn depth_counts_nesting() {
        let flat = BasisFunction::from_vc(VarCombo::single(1, 0, 1));
        assert_eq!(flat.depth(), 1);
        let nested = BasisFunction::from_op(1, sample_op());
        // basis -> op -> sum -> term basis
        assert!(nested.depth() >= 3, "depth = {}", nested.depth());
        // Nesting the op inside another sum increases depth.
        let deeper = BasisFunction::from_op(
            1,
            OpApplication::Unary {
                op: UnaryOp::Abs,
                arg: WeightedSum {
                    offset: w(0.0),
                    terms: vec![WeightedTerm {
                        weight: w(1.0),
                        term: BasisFunction::from_op(1, sample_op()),
                    }],
                },
            },
        );
        assert!(deeper.depth() > nested.depth());
    }

    #[test]
    fn collect_vcs_finds_nested_combos() {
        let b = BasisFunction {
            vc: VarCombo::single(1, 0, 2),
            factors: vec![sample_op()],
        };
        let vcs = b.collect_vcs();
        // Own VC plus the nested x0 term.
        assert_eq!(vcs.len(), 2);
    }

    #[test]
    fn used_variables_skips_zero_exponents() {
        let b = BasisFunction {
            vc: VarCombo::from_exponents(vec![0, 2, 0]),
            factors: vec![],
        };
        assert_eq!(b.used_variables(), vec![1]);
    }

    #[test]
    fn weighted_sum_constant_form() {
        let s = WeightedSum::constant(w(5.0));
        assert!(s.is_constant());
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn lte_depth_covers_all_branches() {
        let mk = |v: f64| Box::new(WeightedSum::constant(w(v)));
        let deep = Box::new(WeightedSum {
            offset: w(0.0),
            terms: vec![WeightedTerm {
                weight: w(1.0),
                term: BasisFunction::from_op(1, sample_op()),
            }],
        });
        let lte = OpApplication::Lte(LteArgs {
            test: mk(1.0),
            cond: None,
            if_less: deep,
            otherwise: mk(2.0),
        });
        assert!(lte.depth() >= 4);
    }

    #[test]
    fn serde_round_trip() {
        let b = BasisFunction {
            vc: VarCombo::single(1, 0, -1),
            factors: vec![sample_op()],
        };
        let json = serde_json::to_string(&b).unwrap();
        let back: BasisFunction = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
    }
}
