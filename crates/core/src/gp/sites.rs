//! Subtree site enumeration, extraction, and grafting.
//!
//! The paper requires that "only subtrees with the same root can be
//! crossed over". The grammar's nonterminals map to five *site kinds*;
//! this module walks an expression tree in a deterministic preorder and
//! lets the operators count, copy out, and replace the `i`-th site of a
//! given kind — which is exactly what same-root crossover and subtree
//! mutation need.

use std::ops::ControlFlow;

use crate::expr::{BasisFunction, OpApplication, VarCombo, Weight, WeightedSum};

/// The grammar nonterminal (or terminal) a site corresponds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// A `REPVC` node: a basis function or nested product term.
    Product,
    /// A `REPOP` node: an operator application.
    Op,
    /// A `'W' + REPADD` node: a weighted sum.
    Sum,
    /// A `VC` terminal.
    Vc,
    /// A `W` terminal.
    Weight,
}

impl SiteKind {
    /// All five site kinds.
    pub const ALL: [SiteKind; 5] = [
        SiteKind::Product,
        SiteKind::Op,
        SiteKind::Sum,
        SiteKind::Vc,
        SiteKind::Weight,
    ];
}

/// An extracted (cloned) subtree.
#[derive(Debug, Clone, PartialEq)]
pub enum Subtree {
    /// A `REPVC` subtree.
    Product(BasisFunction),
    /// A `REPOP` subtree.
    Op(OpApplication),
    /// A weighted-sum subtree.
    Sum(WeightedSum),
    /// A variable combo.
    Vc(VarCombo),
    /// A weight terminal.
    Weight(Weight),
}

impl Subtree {
    /// The kind of this subtree.
    pub fn kind(&self) -> SiteKind {
        match self {
            Subtree::Product(_) => SiteKind::Product,
            Subtree::Op(_) => SiteKind::Op,
            Subtree::Sum(_) => SiteKind::Sum,
            Subtree::Vc(_) => SiteKind::Vc,
            Subtree::Weight(_) => SiteKind::Weight,
        }
    }
}

/// Counts the sites of `kind` in a basis function.
pub fn count_sites(basis: &BasisFunction, kind: SiteKind) -> usize {
    let mut count = 0;
    let _ = walk_basis(basis, kind, &mut |_| {
        count += 1;
        ControlFlow::<()>::Continue(())
    });
    count
}

/// Clones out the `index`-th site of `kind` (preorder), if it exists.
pub fn get_site(basis: &BasisFunction, kind: SiteKind, index: usize) -> Option<Subtree> {
    let mut i = 0;
    let mut found = None;
    let _ = walk_basis(basis, kind, &mut |node| {
        if i == index {
            found = Some(node.to_owned());
            ControlFlow::Break(())
        } else {
            i += 1;
            ControlFlow::Continue(())
        }
    });
    found
}

/// Calls `f` on every variable combo of `basis`, in preorder.
pub(crate) fn for_each_vc_mut(basis: &mut BasisFunction, mut f: impl FnMut(&mut VarCombo)) {
    let _ = walk_basis_mut(basis, SiteKind::Vc, &mut |slot| {
        if let SlotMut::Vc(vc) = slot {
            f(vc);
        }
        ControlFlow::<()>::Continue(())
    });
}

/// Replaces the `index`-th site of `kind` with `replacement`. Returns
/// `true` on success; `false` when the index is out of range or the
/// replacement kind does not match.
pub fn set_site(
    basis: &mut BasisFunction,
    kind: SiteKind,
    index: usize,
    replacement: Subtree,
) -> bool {
    if replacement.kind() != kind {
        return false;
    }
    let mut i = 0;
    let mut replacement = Some(replacement);
    let result = walk_basis_mut(basis, kind, &mut |slot| {
        if i == index {
            match (slot, replacement.take()) {
                (SlotMut::Product(p), Some(Subtree::Product(new))) => *p = new,
                (SlotMut::Op(o), Some(Subtree::Op(new))) => *o = new,
                (SlotMut::Sum(s), Some(Subtree::Sum(new))) => *s = new,
                (SlotMut::Vc(v), Some(Subtree::Vc(new))) => *v = new,
                (SlotMut::Weight(w), Some(Subtree::Weight(new))) => *w = new,
                _ => return ControlFlow::Break(false),
            }
            ControlFlow::Break(true)
        } else {
            i += 1;
            ControlFlow::Continue(())
        }
    });
    matches!(result, ControlFlow::Break(true))
}

// ---------------------------------------------------------------------
// Immutable walk: calls `f` with a borrowed node for each site of `kind`.
// ---------------------------------------------------------------------

/// A borrowed site; [`get_site`] clones only the one it returns.
enum SiteRef<'a> {
    Product(&'a BasisFunction),
    Op(&'a OpApplication),
    Sum(&'a WeightedSum),
    Vc(&'a VarCombo),
    Weight(Weight),
}

impl SiteRef<'_> {
    fn to_owned(&self) -> Subtree {
        match *self {
            SiteRef::Product(p) => Subtree::Product(p.clone()),
            SiteRef::Op(o) => Subtree::Op(o.clone()),
            SiteRef::Sum(s) => Subtree::Sum(s.clone()),
            SiteRef::Vc(v) => Subtree::Vc(v.clone()),
            SiteRef::Weight(w) => Subtree::Weight(w),
        }
    }
}

fn walk_basis<'a, B>(
    basis: &'a BasisFunction,
    kind: SiteKind,
    f: &mut impl FnMut(SiteRef<'a>) -> ControlFlow<B>,
) -> ControlFlow<B> {
    if kind == SiteKind::Product {
        f(SiteRef::Product(basis))?;
    }
    if kind == SiteKind::Vc {
        f(SiteRef::Vc(&basis.vc))?;
    }
    for op in &basis.factors {
        walk_op(op, kind, f)?;
    }
    ControlFlow::Continue(())
}

fn walk_op<'a, B>(
    op: &'a OpApplication,
    kind: SiteKind,
    f: &mut impl FnMut(SiteRef<'a>) -> ControlFlow<B>,
) -> ControlFlow<B> {
    if kind == SiteKind::Op {
        f(SiteRef::Op(op))?;
    }
    match op {
        OpApplication::Unary { arg, .. } => walk_sum(arg, kind, f),
        OpApplication::Binary { args, .. } => {
            walk_sum(&args.left, kind, f)?;
            walk_sum(&args.right, kind, f)
        }
        OpApplication::Lte(l) => {
            walk_sum(&l.test, kind, f)?;
            if let Some(c) = &l.cond {
                walk_sum(c, kind, f)?;
            }
            walk_sum(&l.if_less, kind, f)?;
            walk_sum(&l.otherwise, kind, f)
        }
    }
}

fn walk_sum<'a, B>(
    sum: &'a WeightedSum,
    kind: SiteKind,
    f: &mut impl FnMut(SiteRef<'a>) -> ControlFlow<B>,
) -> ControlFlow<B> {
    if kind == SiteKind::Sum {
        f(SiteRef::Sum(sum))?;
    }
    if kind == SiteKind::Weight {
        f(SiteRef::Weight(sum.offset))?;
    }
    for t in &sum.terms {
        if kind == SiteKind::Weight {
            f(SiteRef::Weight(t.weight))?;
        }
        walk_basis(&t.term, kind, f)?;
    }
    ControlFlow::Continue(())
}

// ---------------------------------------------------------------------
// Mutable walk: calls `f` with a mutable slot for each site of `kind`.
// ---------------------------------------------------------------------

enum SlotMut<'a> {
    Product(&'a mut BasisFunction),
    Op(&'a mut OpApplication),
    Sum(&'a mut WeightedSum),
    Vc(&'a mut VarCombo),
    Weight(&'a mut Weight),
}

fn walk_basis_mut<B>(
    basis: &mut BasisFunction,
    kind: SiteKind,
    f: &mut impl FnMut(SlotMut<'_>) -> ControlFlow<B>,
) -> ControlFlow<B> {
    if kind == SiteKind::Product {
        f(SlotMut::Product(basis))?;
    }
    if kind == SiteKind::Vc {
        f(SlotMut::Vc(&mut basis.vc))?;
    }
    for op in &mut basis.factors {
        walk_op_mut(op, kind, f)?;
    }
    ControlFlow::Continue(())
}

fn walk_op_mut<B>(
    op: &mut OpApplication,
    kind: SiteKind,
    f: &mut impl FnMut(SlotMut<'_>) -> ControlFlow<B>,
) -> ControlFlow<B> {
    if kind == SiteKind::Op {
        f(SlotMut::Op(op))?;
    }
    match op {
        OpApplication::Unary { arg, .. } => walk_sum_mut(arg, kind, f),
        OpApplication::Binary { args, .. } => {
            walk_sum_mut(&mut args.left, kind, f)?;
            walk_sum_mut(&mut args.right, kind, f)
        }
        OpApplication::Lte(l) => {
            walk_sum_mut(&mut l.test, kind, f)?;
            if let Some(c) = &mut l.cond {
                walk_sum_mut(c, kind, f)?;
            }
            walk_sum_mut(&mut l.if_less, kind, f)?;
            walk_sum_mut(&mut l.otherwise, kind, f)
        }
    }
}

fn walk_sum_mut<B>(
    sum: &mut WeightedSum,
    kind: SiteKind,
    f: &mut impl FnMut(SlotMut<'_>) -> ControlFlow<B>,
) -> ControlFlow<B> {
    if kind == SiteKind::Sum {
        f(SlotMut::Sum(sum))?;
    }
    if kind == SiteKind::Weight {
        f(SlotMut::Weight(&mut sum.offset))?;
    }
    for t in &mut sum.terms {
        if kind == SiteKind::Weight {
            f(SlotMut::Weight(&mut t.weight))?;
        }
        walk_basis_mut(&mut t.term, kind, f)?;
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{UnaryOp, WeightConfig, WeightedTerm};

    fn w(v: f64) -> Weight {
        Weight::from_value(v, &WeightConfig::default())
    }

    /// `x0 * inv(1 + 2·x1)` — one nested product term.
    fn sample() -> BasisFunction {
        BasisFunction {
            vc: VarCombo::single(2, 0, 1),
            factors: vec![OpApplication::Unary {
                op: UnaryOp::Inv,
                arg: WeightedSum {
                    offset: w(1.0),
                    terms: vec![WeightedTerm {
                        weight: w(2.0),
                        term: BasisFunction::from_vc(VarCombo::single(2, 1, 1)),
                    }],
                },
            }],
        }
    }

    #[test]
    fn counts_match_structure() {
        let b = sample();
        assert_eq!(count_sites(&b, SiteKind::Product), 2); // top + nested term
        assert_eq!(count_sites(&b, SiteKind::Op), 1);
        assert_eq!(count_sites(&b, SiteKind::Sum), 1);
        assert_eq!(count_sites(&b, SiteKind::Vc), 2);
        assert_eq!(count_sites(&b, SiteKind::Weight), 2); // offset + term weight
    }

    #[test]
    fn get_site_returns_preorder_nodes() {
        let b = sample();
        match get_site(&b, SiteKind::Vc, 0) {
            Some(Subtree::Vc(vc)) => assert_eq!(vc.exponents(), &[1, 0]),
            other => panic!("unexpected {other:?}"),
        }
        match get_site(&b, SiteKind::Vc, 1) {
            Some(Subtree::Vc(vc)) => assert_eq!(vc.exponents(), &[0, 1]),
            other => panic!("unexpected {other:?}"),
        }
        assert!(get_site(&b, SiteKind::Vc, 2).is_none());
    }

    #[test]
    fn set_site_replaces_nested_vc() {
        let mut b = sample();
        let new_vc = VarCombo::from_exponents(vec![-2, 0]);
        assert!(set_site(
            &mut b,
            SiteKind::Vc,
            1,
            Subtree::Vc(new_vc.clone())
        ));
        match get_site(&b, SiteKind::Vc, 1) {
            Some(Subtree::Vc(vc)) => assert_eq!(vc, new_vc),
            other => panic!("unexpected {other:?}"),
        }
        // Top-level VC untouched.
        match get_site(&b, SiteKind::Vc, 0) {
            Some(Subtree::Vc(vc)) => assert_eq!(vc.exponents(), &[1, 0]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn set_site_rejects_kind_mismatch_and_bad_index() {
        let mut b = sample();
        assert!(!set_site(&mut b, SiteKind::Vc, 0, Subtree::Weight(w(1.0))));
        assert!(!set_site(
            &mut b,
            SiteKind::Op,
            5,
            Subtree::Op(OpApplication::Unary {
                op: UnaryOp::Abs,
                arg: WeightedSum::constant(w(1.0)),
            })
        ));
    }

    #[test]
    fn weight_sites_can_be_perturbed() {
        let mut b = sample();
        let cfg = WeightConfig::default();
        let Subtree::Weight(orig) = get_site(&b, SiteKind::Weight, 0).unwrap() else {
            panic!("expected weight");
        };
        let new = orig.perturbed(1.0, &cfg);
        assert!(set_site(&mut b, SiteKind::Weight, 0, Subtree::Weight(new)));
        let Subtree::Weight(after) = get_site(&b, SiteKind::Weight, 0).unwrap() else {
            panic!("expected weight");
        };
        assert!((after.raw() - orig.raw() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn product_swap_round_trips() {
        let a = sample();
        let b = BasisFunction::from_vc(VarCombo::from_exponents(vec![0, -1]));
        // Replace a's nested product term with b.
        let mut child = a.clone();
        assert!(set_site(
            &mut child,
            SiteKind::Product,
            1,
            Subtree::Product(b.clone())
        ));
        match get_site(&child, SiteKind::Product, 1) {
            Some(Subtree::Product(p)) => assert_eq!(p, b),
            other => panic!("unexpected {other:?}"),
        }
        // Replacing the top-level product (index 0) swaps the whole tree...
        let mut whole = a.clone();
        assert!(set_site(
            &mut whole,
            SiteKind::Product,
            0,
            Subtree::Product(b.clone())
        ));
        assert_eq!(whole, b);
    }

    #[test]
    fn sum_sites_swap() {
        let mut b = sample();
        let new_sum = WeightedSum::constant(w(7.0));
        assert!(set_site(
            &mut b,
            SiteKind::Sum,
            0,
            Subtree::Sum(new_sum.clone())
        ));
        match &b.factors[0] {
            OpApplication::Unary { arg, .. } => assert_eq!(*arg, new_sum),
            other => panic!("unexpected {other:?}"),
        }
    }
}
