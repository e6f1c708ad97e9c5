//! Property-based tests of the CAFFEINE core: grammar closure of every
//! evolutionary operator, parents untouched by their children's edits,
//! evaluation robustness, complexity monotonicity, and NSGA-II ordering
//! laws.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use caffeine_core::expr::{complexity, eval_basis, ComplexityWeights, EvalContext};
use caffeine_core::gp::{
    count_sites, get_site, set_site, GpOperators, Individual, OperatorKind, OperatorSettings,
    SiteKind, Subtree,
};
use caffeine_core::grammar::validate::validate_basis;
use caffeine_core::grammar::RandomExprGen;
use caffeine_core::{nsga2, GrammarConfig};

fn random_individual(g: &GrammarConfig, rng: &mut StdRng, n: usize) -> Individual {
    let gen = RandomExprGen::new(g);
    Individual::new((0..n).map(|_| gen.gen_basis(rng)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every operator, applied to any random parents under any of the
    /// preset grammars, yields grammar-valid offspring within limits.
    #[test]
    fn operators_are_closed_over_grammar(
        seed in 0u64..10_000,
        which_grammar in 0usize..3,
        op_index in 0usize..9,
        n1 in 1usize..5,
        n2 in 1usize..5,
    ) {
        let grammar = match which_grammar {
            0 => GrammarConfig::paper_full(4),
            1 => GrammarConfig::rational(4),
            _ => GrammarConfig::no_trig(4),
        };
        let settings = OperatorSettings { max_bases: 6, ..OperatorSettings::default() };
        let ops = GpOperators::new(&grammar, settings);
        let mut rng = StdRng::seed_from_u64(seed);
        let p1 = random_individual(&grammar, &mut rng, n1);
        let p2 = random_individual(&grammar, &mut rng, n2);
        let kind = OperatorKind::ALL[op_index];
        let child = ops.apply(&mut rng, kind, &p1, &p2);
        prop_assert!(!child.bases.is_empty());
        prop_assert!(child.bases.len() <= 6);
        for b in &child.bases {
            prop_assert!(validate_basis(b, &grammar).is_ok(),
                "{kind:?} violated the grammar");
        }
    }

    /// A child shares its parents' exponent vectors copy-on-write. No
    /// operator, no repair (here clamping exponents the parents' grammar
    /// allowed into a tighter one) and no later edit of the child's
    /// exponents may change a bit of either parent.
    #[test]
    fn children_never_write_through_to_their_parents(
        seed in 0u64..10_000,
        op_index in 0usize..9,
        n1 in 1usize..5,
        n2 in 1usize..5,
        tighten in 0u8..2,
    ) {
        let grammar = GrammarConfig::paper_full(3);
        let mut bred_under = grammar.clone();
        if tighten == 1 {
            bred_under.max_exponent = 1;
            bred_under.negative_exponents = false;
        }
        let ops = GpOperators::new(&bred_under, OperatorSettings::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let p1 = random_individual(&grammar, &mut rng, n1);
        let p2 = random_individual(&grammar, &mut rng, n2);
        let bits = |ind: &Individual| serde_json::to_string(ind).unwrap();
        let (before1, before2) = (bits(&p1), bits(&p2));
        let kind = OperatorKind::ALL[op_index];
        let mut child = ops.apply(&mut rng, kind, &p1, &p2);
        prop_assert!(bits(&p1) == before1, "{kind:?} changed the first parent");
        prop_assert!(bits(&p2) == before2, "{kind:?} changed the second parent");
        for basis in &mut child.bases {
            let n = count_sites(basis, SiteKind::Vc);
            for i in 0..n {
                let Some(Subtree::Vc(mut vc)) = get_site(basis, SiteKind::Vc, i) else {
                    unreachable!("site {i} of {n}");
                };
                *vc.exponent_mut(0) += 1;
                vc.clamp_exponents(0);
                prop_assert!(set_site(basis, SiteKind::Vc, i, Subtree::Vc(vc)));
            }
            *basis.vc.exponent_mut(1) -= 2;
        }
        prop_assert!(bits(&p1) == before1, "editing a {kind:?} child changed a parent");
        prop_assert!(bits(&p2) == before2, "editing a {kind:?} child changed a parent");
    }

    /// Rational-grammar expressions evaluate finite on strictly positive
    /// inputs (no operators, only integer-exponent monomials).
    #[test]
    fn rational_expressions_finite_on_positive_points(
        seed in 0u64..10_000,
        x in proptest::collection::vec(0.1f64..10.0, 3),
    ) {
        let grammar = GrammarConfig::rational(3);
        let gen = RandomExprGen::new(&grammar);
        let mut rng = StdRng::seed_from_u64(seed);
        let basis = gen.gen_basis(&mut rng);
        let y = eval_basis(&basis, &x, &EvalContext::new(grammar.weights));
        prop_assert!(y.is_finite(), "basis evaluated to {y}");
    }

    /// Complexity is strictly monotone under appending a basis function.
    #[test]
    fn complexity_monotone_in_bases(seed in 0u64..10_000, n in 1usize..6) {
        let grammar = GrammarConfig::paper_full(3);
        let gen = RandomExprGen::new(&grammar);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bases: Vec<_> = (0..n).map(|_| gen.gen_basis(&mut rng)).collect();
        let w = ComplexityWeights::default();
        let before = complexity(&bases, &w);
        bases.push(gen.gen_basis(&mut rng));
        let after = complexity(&bases, &w);
        prop_assert!(after > before);
    }

    /// Domination is a strict partial order: irreflexive, asymmetric,
    /// transitive.
    #[test]
    fn domination_partial_order(
        a in proptest::collection::vec(0.0f64..1.0, 2),
        b in proptest::collection::vec(0.0f64..1.0, 2),
        c in proptest::collection::vec(0.0f64..1.0, 2),
    ) {
        prop_assert!(!nsga2::dominates(&a, &a));
        if nsga2::dominates(&a, &b) {
            prop_assert!(!nsga2::dominates(&b, &a));
        }
        if nsga2::dominates(&a, &b) && nsga2::dominates(&b, &c) {
            prop_assert!(nsga2::dominates(&a, &c));
        }
    }

    /// Front 0 of the fast sort is exactly the nondominated set, and
    /// fronts partition the population.
    #[test]
    fn fronts_partition_and_front0_is_nondominated(
        objs in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 2), 1..40),
    ) {
        let objs: Vec<[f64; 2]> = objs.iter().map(|o| [o[0], o[1]]).collect();
        let fronts = nsga2::fast_nondominated_sort(&objs);
        let total: usize = fronts.iter().map(Vec::len).sum();
        prop_assert_eq!(total, objs.len());
        for &i in &fronts[0] {
            for (j, o) in objs.iter().enumerate() {
                if i != j {
                    prop_assert!(!nsga2::dominates(o, &objs[i]));
                }
            }
        }
    }

    /// Generated trees always respect the depth budget, across budgets.
    #[test]
    fn generation_respects_depth(seed in 0u64..10_000, depth in 1usize..10) {
        let mut grammar = GrammarConfig::paper_full(3);
        grammar.max_depth = depth;
        let gen = RandomExprGen::new(&grammar);
        let mut rng = StdRng::seed_from_u64(seed);
        let b = gen.gen_basis(&mut rng);
        prop_assert!(b.depth() <= depth, "depth {} > {}", b.depth(), depth);
    }

    /// Algebraic simplification preserves model predictions (to the
    /// weight-encoding precision) and never increases complexity.
    #[test]
    fn simplified_models_predict_identically(
        seed in 0u64..10_000,
        n_bases in 1usize..5,
        x in proptest::collection::vec(0.2f64..5.0, 3),
    ) {
        use caffeine_core::expr::WeightConfig;
        use caffeine_core::Model;
        let grammar = GrammarConfig::paper_full(3);
        let gen = RandomExprGen::new(&grammar);
        let mut rng = StdRng::seed_from_u64(seed);
        let bases: Vec<_> = (0..n_bases).map(|_| gen.gen_basis(&mut rng)).collect();
        let coefficients: Vec<f64> = (0..=n_bases).map(|i| 0.5 + i as f64).collect();
        let model = Model::new(bases, coefficients, WeightConfig::default());
        let cw = ComplexityWeights::default();
        let mut with_cx = model.clone();
        with_cx.recompute_complexity(&cw);
        let simple = model.simplified(&cw);
        let a = model.predict_one(&x);
        let b = simple.predict_one(&x);
        if a.is_finite() && b.is_finite() {
            prop_assert!(
                (a - b).abs() <= 1e-6 * a.abs().max(1.0),
                "prediction changed: {a} vs {b}"
            );
        }
        prop_assert!(simple.complexity <= with_cx.complexity + 1e-9);
    }

    /// Weight round trip: interpreting then re-encoding a value keeps it.
    #[test]
    fn weight_value_encoding_round_trips(v in -1e9f64..1e9) {
        use caffeine_core::expr::{Weight, WeightConfig};
        let cfg = WeightConfig::default();
        let w = Weight::from_value(v, &cfg);
        let decoded = w.value(&cfg);
        if v.abs() > 1e-8 {
            let rel = (decoded - v).abs() / v.abs();
            prop_assert!(rel < 1e-9, "{v} -> {decoded}");
        }
    }
}
