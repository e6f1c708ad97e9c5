//! The evolutionary operators of CAFFEINE.
//!
//! The paper's operator inventory (Secs. 4–5), all implemented here:
//!
//! * same-root **subtree crossover** between two parents,
//! * zero-mean **Cauchy mutation** of a `W` node (biased 5× more likely
//!   than the structural operators in the paper's runs),
//! * **VC exponent mutation** (randomly add/subtract 1) and **VC one-point
//!   crossover**,
//! * **subtree replacement** with a freshly derived subtree,
//! * basis-function level operators: **add** a random tree, **delete** a
//!   random basis, **copy** a basis (subtree) from another individual, and
//!   create offspring from the **union** of >0 bases from each parent.
//!
//! Every operator is *closed* over the grammar: outputs always validate
//! against the generating [`GrammarConfig`] (enforced by property tests).

use rand::Rng;

use super::individual::Individual;
use super::sites::{count_sites, for_each_vc_mut, get_site, set_site, SiteKind, Subtree};
use crate::expr::{cauchy_gamma_default, BasisFunction};
use crate::grammar::RandomExprGen;
use crate::GrammarConfig;

/// Selection weights for the operators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatorSettings {
    /// Relative probability weight of parameter (Cauchy) mutation; the
    /// paper sets this 5× the other operators.
    pub param_mutation_weight: f64,
    /// Maximum number of basis functions per individual (paper: 15).
    pub max_bases: usize,
    /// Cauchy scale for weight mutation (in raw-weight units).
    pub cauchy_gamma: f64,
    /// Retries for rejected (depth-violating) crossovers before falling
    /// back to a parameter mutation.
    pub max_retries: usize,
}

impl Default for OperatorSettings {
    fn default() -> Self {
        OperatorSettings {
            param_mutation_weight: 5.0,
            max_bases: 15,
            cauchy_gamma: cauchy_gamma_default(),
            max_retries: 4,
        }
    }
}

/// The distinct operator kinds (useful for instrumentation and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// Same-root subtree crossover.
    SubtreeCrossover,
    /// Cauchy mutation of one weight.
    WeightMutation,
    /// ±1 on one VC exponent.
    VcExponentMutation,
    /// One-point crossover of two VCs.
    VcCrossover,
    /// Replace a subtree with a fresh random derivation.
    SubtreeReplace,
    /// Append a freshly generated basis function.
    AddBasis,
    /// Remove a random basis function.
    DeleteBasis,
    /// Copy a random basis function from the second parent.
    CopyBasis,
    /// Offspring from >0 random bases of each parent.
    UnionBases,
}

impl OperatorKind {
    /// All operators.
    pub const ALL: [OperatorKind; 9] = [
        OperatorKind::SubtreeCrossover,
        OperatorKind::WeightMutation,
        OperatorKind::VcExponentMutation,
        OperatorKind::VcCrossover,
        OperatorKind::SubtreeReplace,
        OperatorKind::AddBasis,
        OperatorKind::DeleteBasis,
        OperatorKind::CopyBasis,
        OperatorKind::UnionBases,
    ];
}

/// Operator engine bound to a grammar.
#[derive(Debug)]
pub struct GpOperators<'g> {
    generator: RandomExprGen<'g>,
    settings: OperatorSettings,
}

impl<'g> GpOperators<'g> {
    /// Creates the operator engine.
    pub fn new(grammar: &'g GrammarConfig, settings: OperatorSettings) -> GpOperators<'g> {
        GpOperators {
            generator: RandomExprGen::new(grammar),
            settings,
        }
    }

    /// The bound grammar.
    pub fn grammar(&self) -> &GrammarConfig {
        self.generator.grammar()
    }

    /// The random-expression generator (for population initialization).
    pub fn generator(&self) -> &RandomExprGen<'g> {
        &self.generator
    }

    /// Samples an operator kind with the configured bias.
    pub fn pick_operator<R: Rng + ?Sized>(&self, rng: &mut R) -> OperatorKind {
        let w = self.settings.param_mutation_weight.max(0.0);
        let total = 8.0 + w;
        let mut x = rng.gen_range(0.0..total);
        if x < w {
            return OperatorKind::WeightMutation;
        }
        x -= w;
        let idx = (x.floor() as usize).min(7);
        [
            OperatorKind::SubtreeCrossover,
            OperatorKind::VcExponentMutation,
            OperatorKind::VcCrossover,
            OperatorKind::SubtreeReplace,
            OperatorKind::AddBasis,
            OperatorKind::DeleteBasis,
            OperatorKind::CopyBasis,
            OperatorKind::UnionBases,
        ][idx]
    }

    /// Produces one offspring from two parents.
    pub fn make_offspring<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        p1: &Individual,
        p2: &Individual,
    ) -> Individual {
        let kind = self.pick_operator(rng);
        self.apply(rng, kind, p1, p2)
    }

    /// Applies a specific operator (exposed for tests and ablations).
    pub fn apply<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        kind: OperatorKind,
        p1: &Individual,
        p2: &Individual,
    ) -> Individual {
        let mut child = match kind {
            OperatorKind::SubtreeCrossover => self.subtree_crossover(rng, p1, p2),
            OperatorKind::WeightMutation => self.weight_mutation(rng, p1),
            OperatorKind::VcExponentMutation => self.vc_exponent_mutation(rng, p1),
            OperatorKind::VcCrossover => self.vc_crossover(rng, p1, p2),
            OperatorKind::SubtreeReplace => self.subtree_replace(rng, p1),
            OperatorKind::AddBasis => self.add_basis(rng, p1),
            OperatorKind::DeleteBasis => self.delete_basis(rng, p1),
            OperatorKind::CopyBasis => self.copy_basis(rng, p1, p2),
            OperatorKind::UnionBases => self.union_bases(rng, p1, p2),
        };
        self.repair(rng, &mut child);
        child.invalidate();
        child
    }

    /// Post-operator repair: clamp exponents, drop trivial bases, enforce
    /// the depth budget and the basis-count cap.
    fn repair<R: Rng + ?Sized>(&self, rng: &mut R, child: &mut Individual) {
        let g = self.grammar();
        for b in &mut child.bases {
            clamp_exponents(b, g);
        }
        child
            .bases
            .retain(|b| !b.is_trivial() && b.depth() <= g.max_depth);
        if child.bases.len() > self.settings.max_bases {
            while child.bases.len() > self.settings.max_bases {
                let i = rng.gen_range(0..child.bases.len());
                child.bases.swap_remove(i);
            }
        }
        if child.bases.is_empty() {
            child
                .bases
                .push(self.generator.gen_basis_depth(rng, g.max_depth.min(3)));
        }
    }

    fn subtree_crossover<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        p1: &Individual,
        p2: &Individual,
    ) -> Individual {
        for _ in 0..self.settings.max_retries {
            let bi = rng.gen_range(0..p1.bases.len());
            let donor = &p2.bases[rng.gen_range(0..p2.bases.len())];
            // Random same-root kind present in both trees.
            let mut kinds = SiteKind::ALL;
            shuffle(rng, &mut kinds);
            let Some((kind, dst_n, src_n)) = kinds.iter().find_map(|&k| {
                let dst = count_sites(&p1.bases[bi], k);
                let src = count_sites(donor, k);
                if dst > 0 && src > 0 {
                    Some((k, dst, src))
                } else {
                    None
                }
            }) else {
                continue;
            };
            let src_idx = rng.gen_range(0..src_n);
            let dst_idx = rng.gen_range(0..dst_n);
            let Some(sub) = get_site(donor, kind, src_idx) else {
                continue;
            };
            let mut candidate = p1.bases[bi].clone();
            if set_site(&mut candidate, kind, dst_idx, sub)
                && candidate.depth() <= self.grammar().max_depth
                && !candidate.is_trivial()
            {
                return with_basis(p1, bi, candidate);
            }
        }
        // All retries rejected: degrade to parameter mutation.
        self.weight_mutation(rng, p1)
    }

    fn weight_mutation<R: Rng + ?Sized>(&self, rng: &mut R, p1: &Individual) -> Individual {
        let g = self.grammar();
        // Find a basis that actually has weight sites.
        let with_weights: Vec<usize> = (0..p1.bases.len())
            .filter(|&i| count_sites(&p1.bases[i], SiteKind::Weight) > 0)
            .collect();
        let Some(&bi) = pick(rng, &with_weights) else {
            // Pure-VC model: no weights to mutate; mutate an exponent.
            return self.vc_exponent_mutation(rng, p1);
        };
        let mut child = child_of(p1);
        let n = count_sites(&child.bases[bi], SiteKind::Weight);
        let idx = rng.gen_range(0..n);
        let Some(Subtree::Weight(w)) = get_site(&child.bases[bi], SiteKind::Weight, idx) else {
            return child;
        };
        let delta = crate::expr::cauchy_sample(rng, self.settings.cauchy_gamma);
        let new = w.perturbed(delta, &g.weights);
        set_site(
            &mut child.bases[bi],
            SiteKind::Weight,
            idx,
            Subtree::Weight(new),
        );
        child
    }

    fn vc_exponent_mutation<R: Rng + ?Sized>(&self, rng: &mut R, p1: &Individual) -> Individual {
        let mut child = child_of(p1);
        let g = self.grammar();
        let bi = rng.gen_range(0..child.bases.len());
        let n = count_sites(&child.bases[bi], SiteKind::Vc);
        if n == 0 {
            return child;
        }
        let idx = rng.gen_range(0..n);
        let Some(Subtree::Vc(mut vc)) = get_site(&child.bases[bi], SiteKind::Vc, idx) else {
            return child;
        };
        let var = rng.gen_range(0..g.n_vars);
        let delta = if rng.gen_bool(0.5) { 1 } else { -1 };
        let e = vc.exponent_mut(var);
        *e += delta;
        if !g.negative_exponents && *e < 0 {
            *e = 0;
        }
        vc.clamp_exponents(g.max_exponent);
        set_site(&mut child.bases[bi], SiteKind::Vc, idx, Subtree::Vc(vc));
        child
    }

    fn vc_crossover<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        p1: &Individual,
        p2: &Individual,
    ) -> Individual {
        let mut child = child_of(p1);
        let bi = rng.gen_range(0..child.bases.len());
        let donor = &p2.bases[rng.gen_range(0..p2.bases.len())];
        let n_dst = count_sites(&child.bases[bi], SiteKind::Vc);
        let n_src = count_sites(donor, SiteKind::Vc);
        if n_dst == 0 || n_src == 0 {
            return child;
        }
        let (Some(Subtree::Vc(a)), Some(Subtree::Vc(b))) = (
            get_site(&child.bases[bi], SiteKind::Vc, rng.gen_range(0..n_dst)),
            get_site(donor, SiteKind::Vc, rng.gen_range(0..n_src)),
        ) else {
            return child;
        };
        let cut = rng.gen_range(0..=a.n_vars());
        let (new_vc, _) = a.one_point_crossover(&b, cut);
        let idx = rng.gen_range(0..n_dst);
        set_site(&mut child.bases[bi], SiteKind::Vc, idx, Subtree::Vc(new_vc));
        child
    }

    fn subtree_replace<R: Rng + ?Sized>(&self, rng: &mut R, p1: &Individual) -> Individual {
        let g = self.grammar();
        let bi = rng.gen_range(0..p1.bases.len());
        let budget = g.max_depth.saturating_sub(2).max(1);
        let has_ops = !g.unary_ops.is_empty() || !g.binary_ops.is_empty() || g.lte || g.lte_zero;
        let mut kinds: Vec<SiteKind> = vec![SiteKind::Product, SiteKind::Vc, SiteKind::Weight];
        if has_ops {
            kinds.push(SiteKind::Op);
            kinds.push(SiteKind::Sum);
        }
        shuffle(rng, &mut kinds);
        for &kind in &kinds {
            let n = count_sites(&p1.bases[bi], kind);
            if n == 0 {
                continue;
            }
            let idx = rng.gen_range(0..n);
            let replacement = match kind {
                SiteKind::Product => Subtree::Product(self.generator.gen_basis_depth(rng, budget)),
                SiteKind::Op => Subtree::Op(self.generator.gen_op(rng, budget)),
                SiteKind::Sum => {
                    Subtree::Sum(self.generator.gen_sum(rng, budget.saturating_sub(1).max(1)))
                }
                SiteKind::Vc => Subtree::Vc(self.generator.gen_nonidentity_vc(rng)),
                SiteKind::Weight => Subtree::Weight(self.generator.gen_weight(rng)),
            };
            let mut candidate = p1.bases[bi].clone();
            if set_site(&mut candidate, kind, idx, replacement) && candidate.depth() <= g.max_depth
            {
                return with_basis(p1, bi, candidate);
            }
        }
        child_of(p1)
    }

    fn add_basis<R: Rng + ?Sized>(&self, rng: &mut R, p1: &Individual) -> Individual {
        let mut child = child_of(p1);
        if child.bases.len() < self.settings.max_bases {
            child.bases.push(self.generator.gen_basis(rng));
        }
        child
    }

    fn delete_basis<R: Rng + ?Sized>(&self, rng: &mut R, p1: &Individual) -> Individual {
        if p1.bases.len() <= 1 {
            return child_of(p1);
        }
        let i = rng.gen_range(0..p1.bases.len());
        let mut bases = p1.bases[..i].to_vec();
        bases.extend_from_slice(&p1.bases[i + 1..]);
        Individual::new(bases)
    }

    fn copy_basis<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        p1: &Individual,
        p2: &Individual,
    ) -> Individual {
        let mut child = child_of(p1);
        if child.bases.len() < self.settings.max_bases {
            let donor = &p2.bases[rng.gen_range(0..p2.bases.len())];
            child.bases.push(donor.clone());
        }
        child
    }

    fn union_bases<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        p1: &Individual,
        p2: &Individual,
    ) -> Individual {
        let mut bases: Vec<BasisFunction> = Vec::new();
        for parent in [p1, p2] {
            // ">0 basis functions from each of 2 parents".
            let take = rng.gen_range(1..=parent.bases.len());
            let mut idx: Vec<usize> = (0..parent.bases.len()).collect();
            shuffle(rng, &mut idx);
            for &i in idx.iter().take(take) {
                bases.push(parent.bases[i].clone());
            }
        }
        Individual::new(bases)
    }
}

/// An unevaluated child with `parent`'s bases. The clone shares every
/// exponent vector with the parent (copy-on-write, see
/// [`crate::expr::VarCombo`]) and leaves the parent's evaluation behind.
fn child_of(parent: &Individual) -> Individual {
    Individual {
        bases: parent.bases.clone(),
        eval: None,
    }
}

/// An unevaluated child with `parent`'s bases, basis `bi` replaced by
/// `basis` (see [`child_of`]).
fn with_basis(parent: &Individual, bi: usize, basis: BasisFunction) -> Individual {
    let mut bases = Vec::with_capacity(parent.bases.len());
    bases.extend_from_slice(&parent.bases[..bi]);
    bases.push(basis);
    bases.extend_from_slice(&parent.bases[bi + 1..]);
    Individual { bases, eval: None }
}

/// Clamps every exponent of `basis` into the grammar's range, in one walk.
fn clamp_exponents(basis: &mut BasisFunction, g: &GrammarConfig) {
    for_each_vc_mut(basis, |vc| {
        vc.map_exponents(|v| {
            if !g.negative_exponents && v < 0 {
                0
            } else {
                v.clamp(-g.max_exponent, g.max_exponent)
            }
        });
    });
}

fn shuffle<R: Rng + ?Sized, T>(rng: &mut R, slice: &mut [T]) {
    for i in (1..slice.len()).rev() {
        let j = rng.gen_range(0..=i);
        slice.swap(i, j);
    }
}

fn pick<'a, R: Rng + ?Sized, T>(rng: &mut R, slice: &'a [T]) -> Option<&'a T> {
    if slice.is_empty() {
        None
    } else {
        Some(&slice[rng.gen_range(0..slice.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::validate::validate_basis;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (GrammarConfig, OperatorSettings) {
        (GrammarConfig::paper_full(4), OperatorSettings::default())
    }

    fn random_individual(g: &GrammarConfig, rng: &mut StdRng, n_bases: usize) -> Individual {
        let gen = RandomExprGen::new(g);
        Individual::new((0..n_bases).map(|_| gen.gen_basis(rng)).collect())
    }

    #[test]
    fn every_operator_yields_valid_individuals() {
        let (g, s) = setup();
        let ops = GpOperators::new(&g, s);
        let mut rng = StdRng::seed_from_u64(42);
        let p1 = random_individual(&g, &mut rng, 3);
        let p2 = random_individual(&g, &mut rng, 2);
        for kind in OperatorKind::ALL {
            for _ in 0..25 {
                let child = ops.apply(&mut rng, kind, &p1, &p2);
                assert!(!child.bases.is_empty(), "{kind:?} emptied the individual");
                assert!(
                    child.bases.len() <= s.max_bases,
                    "{kind:?} exceeded max bases"
                );
                for b in &child.bases {
                    validate_basis(b, &g).unwrap_or_else(|e| {
                        panic!("{kind:?} broke the grammar: {e}");
                    });
                }
                assert!(child.eval.is_none(), "{kind:?} kept a stale evaluation");
            }
        }
    }

    #[test]
    fn add_and_delete_change_basis_count() {
        let (g, s) = setup();
        let ops = GpOperators::new(&g, s);
        let mut rng = StdRng::seed_from_u64(1);
        let p = random_individual(&g, &mut rng, 3);
        let added = ops.apply(&mut rng, OperatorKind::AddBasis, &p, &p);
        assert!(added.n_bases() >= p.n_bases());
        let deleted = ops.apply(&mut rng, OperatorKind::DeleteBasis, &p, &p);
        assert!(deleted.n_bases() <= p.n_bases());
    }

    #[test]
    fn delete_never_empties() {
        let (g, s) = setup();
        let ops = GpOperators::new(&g, s);
        let mut rng = StdRng::seed_from_u64(2);
        let p = random_individual(&g, &mut rng, 1);
        for _ in 0..10 {
            let child = ops.apply(&mut rng, OperatorKind::DeleteBasis, &p, &p);
            assert_eq!(child.n_bases(), 1);
        }
    }

    #[test]
    fn union_takes_bases_from_both_parents() {
        let (g, s) = setup();
        let ops = GpOperators::new(&g, s);
        let mut rng = StdRng::seed_from_u64(3);
        let p1 = random_individual(&g, &mut rng, 4);
        let p2 = random_individual(&g, &mut rng, 4);
        let child = ops.apply(&mut rng, OperatorKind::UnionBases, &p1, &p2);
        let from_p1 = child.bases.iter().any(|b| p1.bases.contains(b));
        let from_p2 = child.bases.iter().any(|b| p2.bases.contains(b));
        assert!(from_p1 && from_p2);
    }

    #[test]
    fn weight_mutation_changes_a_weight_raw_value() {
        let (g, s) = setup();
        let ops = GpOperators::new(&g, s);
        let mut rng = StdRng::seed_from_u64(4);
        // Keep sampling parents until one has a weight site.
        let mut p = random_individual(&g, &mut rng, 2);
        while p
            .bases
            .iter()
            .all(|b| count_sites(b, SiteKind::Weight) == 0)
        {
            p = random_individual(&g, &mut rng, 2);
        }
        let mut changed = false;
        for _ in 0..20 {
            let child = ops.apply(&mut rng, OperatorKind::WeightMutation, &p, &p);
            if child.bases != p.bases {
                changed = true;
                break;
            }
        }
        assert!(changed, "cauchy mutation never changed any weight");
    }

    #[test]
    fn operator_bias_favors_parameter_mutation() {
        let (g, mut s) = setup();
        s.param_mutation_weight = 5.0;
        let ops = GpOperators::new(&g, s);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 10_000;
        let hits = (0..n)
            .filter(|_| ops.pick_operator(&mut rng) == OperatorKind::WeightMutation)
            .count();
        // Expected 5/13 ≈ 0.385.
        let frac = hits as f64 / n as f64;
        assert!((frac - 5.0 / 13.0).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn crossover_respects_depth_budget() {
        let (g, s) = setup();
        let ops = GpOperators::new(&g, s);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..50 {
            let p1 = random_individual(&g, &mut rng, 2);
            let p2 = random_individual(&g, &mut rng, 2);
            let child = ops.apply(&mut rng, OperatorKind::SubtreeCrossover, &p1, &p2);
            for b in &child.bases {
                assert!(b.depth() <= g.max_depth);
            }
        }
    }

    #[test]
    fn polynomial_grammar_stays_polynomial_under_all_operators() {
        let g = GrammarConfig::polynomial(3);
        let s = OperatorSettings::default();
        let ops = GpOperators::new(&g, s);
        let mut rng = StdRng::seed_from_u64(7);
        let p1 = random_individual(&g, &mut rng, 3);
        let p2 = random_individual(&g, &mut rng, 3);
        for kind in OperatorKind::ALL {
            for _ in 0..20 {
                let child = ops.apply(&mut rng, kind, &p1, &p2);
                for b in &child.bases {
                    validate_basis(b, &g).unwrap();
                }
            }
        }
    }
}
