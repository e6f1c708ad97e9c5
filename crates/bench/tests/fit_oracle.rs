//! The production fit path (`fit_linear_weights_cached`: tape columns,
//! column cache, the Gram-space solver on the cached column images)
//! equals the reference path (`fit_linear_weights`: tree-walk columns,
//! images reflected per fit, the same solver) bit for bit — coefficients,
//! predictions and the feasible/infeasible verdict — including the
//! collinear designs that take the Householder and ridge fallbacks.
//!
//! Both are then held to the Householder fit the Gram-space solver
//! replaced (`caffeine_bench::perf::reference_fit`) on the same random
//! designs: the same verdict, and relative training errors that agree
//! within a tolerance wherever the Gram path ran. On designs that hold
//! one column twice, which the fit sends straight to the ridge, they
//! agree bit for bit: QR calls every such design singular.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use caffeine_bench::perf::reference_fit;
use caffeine_core::expr::{BasisFunction, EvalContext};
use caffeine_core::fit::design_matrix;
use caffeine_core::grammar::RandomExprGen;
use caffeine_core::{
    fit_linear_weights, fit_linear_weights_cached, FitOutcome, FitScratch, GrammarConfig,
};
use caffeine_doe::PointMatrix;
use caffeine_linalg::{LinalgError, Qr};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `(coefficients, predictions)` bits of a fit, `None` when infeasible.
fn outcome(o: &FitOutcome) -> Option<(Vec<u64>, Vec<u64>)> {
    match o {
        FitOutcome::Fit(f) => Some((bits(&f.coefficients), bits(&f.predictions))),
        FitOutcome::Infeasible => None,
    }
}

/// One random fit problem.
struct Case {
    bases: Vec<BasisFunction>,
    points: Vec<Vec<f64>>,
    targets: Vec<f64>,
    ctx: EvalContext,
}

impl Case {
    fn new(seed: u64) -> Case {
        Case::generate(seed, false)
    }

    /// A case whose bases hold one basis twice, with at least one other
    /// basis between the two copies.
    fn repeating(seed: u64) -> Case {
        Case::generate(seed, true)
    }

    fn generate(seed: u64, repeat: bool) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_vars = rng.gen_range(1..=4usize);
        let grammar = match rng.gen_range(0..3u32) {
            0 => GrammarConfig::paper_full(n_vars),
            1 => GrammarConfig::rational(n_vars),
            _ => GrammarConfig::polynomial(n_vars),
        };
        let gen = RandomExprGen::new(&grammar);

        // Coarse integer grids make repeated and collinear columns common.
        let n_points = rng.gen_range(2..=60usize);
        let points: Vec<Vec<f64>> = (0..n_points)
            .map(|_| {
                (0..n_vars)
                    .map(|_| 0.5 * f64::from(rng.gen_range(1..6i32)))
                    .collect()
            })
            .collect();
        let targets: Vec<f64> = (0..n_points).map(|_| rng.gen_range(-3.0..3.0)).collect();

        let mut bases = Vec::new();
        for _ in 0..rng.gen_range(0..=8usize) {
            bases.push(gen.gen_basis(&mut rng));
            // Repeat a basis now and then: an exactly singular design.
            if rng.gen_range(0..3u32) == 0 {
                bases.push(bases[rng.gen_range(0..bases.len())].clone());
            }
        }
        if repeat {
            while bases.len() < 2 {
                bases.push(gen.gen_basis(&mut rng));
            }
            let first = rng.gen_range(0..bases.len() - 1);
            let copy = rng.gen_range(first + 2..=bases.len());
            bases.insert(copy, bases[first].clone());
        }
        Case {
            bases,
            points,
            targets,
            ctx: EvalContext::new(grammar.weights),
        }
    }

    fn fit(&self) -> FitOutcome {
        fit_linear_weights(&self.bases, &self.points, &self.targets, &self.ctx)
    }

    /// Whether Householder QR finds the design singular (the case in
    /// which [`reference_fit`] takes its ridge).
    fn qr_singular(&self) -> bool {
        design_matrix(&self.bases, &self.points, &self.ctx)
            .filter(|a| a.rows() >= a.cols())
            .is_some_and(|a| {
                matches!(
                    Qr::factor(&a).and_then(|qr| qr.solve_lstsq(&self.targets)),
                    Err(LinalgError::Singular { .. })
                )
            })
    }

    /// `‖prediction − target‖ / ‖target‖`.
    fn relative_error(&self, fit: &FitOutcome) -> f64 {
        let FitOutcome::Fit(fit) = fit else {
            return f64::NAN;
        };
        let sq = |v: &mut dyn Iterator<Item = f64>| v.map(|x| x * x).sum::<f64>();
        let residual = sq(&mut fit
            .predictions
            .iter()
            .zip(&self.targets)
            .map(|(p, y)| p - y));
        (residual / sq(&mut self.targets.iter().copied())).sqrt()
    }
}

/// The cached and reference paths on one case, bit for bit. Returns
/// whether QR finds the case's design singular.
fn check(seed: u64, scratch: &mut FitScratch) -> Result<bool, TestCaseError> {
    let case = Case::new(seed);
    let pm = PointMatrix::from_rows(&case.points);
    let expect = outcome(&case.fit());
    let got = outcome(&fit_linear_weights_cached(
        &case.bases,
        &pm,
        &case.targets,
        &case.ctx,
        scratch,
    ));
    prop_assert_eq!(got, expect);
    Ok(case.qr_singular())
}

/// Absolute tolerance on the relative training error (a ratio of
/// norms, at most 1 for a least-squares fit with an intercept). Over
/// seeds 0..20000 the largest difference was 1.8e-14.
const ERROR_TOLERANCE: f64 = 1e-12;

/// How the fit of one case related to the Householder fit.
#[derive(Debug, PartialEq)]
enum Agreement {
    /// Bit for bit: both infeasible, or the solver fell back to QR.
    Identical,
    /// The Gram path ran; the errors agree within the tolerance.
    Gram,
    /// The Gram path ran on a design QR calls singular; its error is no
    /// worse than the ridge fit's.
    GramOverRidge,
}

/// The fit of one case against [`reference_fit`].
fn agreement(seed: u64) -> Result<Agreement, TestCaseError> {
    let case = Case::new(seed);
    let (got, want) = (
        case.fit(),
        reference_fit(&case.bases, &case.points, &case.targets, &case.ctx),
    );
    let (got_bits, want_bits) = (outcome(&got), outcome(&want));
    prop_assert_eq!(got_bits.is_none(), want_bits.is_none());
    if got_bits == want_bits {
        return Ok(Agreement::Identical);
    }
    let (e_got, e_want) = (case.relative_error(&got), case.relative_error(&want));
    if case.qr_singular() {
        prop_assert!(
            e_got <= e_want + ERROR_TOLERANCE,
            "gram {} vs ridge {}",
            e_got,
            e_want
        );
        Ok(Agreement::GramOverRidge)
    } else {
        prop_assert!(
            (e_got - e_want).abs() <= ERROR_TOLERANCE,
            "gram {} vs householder {}",
            e_got,
            e_want
        );
        Ok(Agreement::Gram)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// One scratch serves every case, so its cache, point-set rebinding
    /// and reused solver storage are exercised too.
    #[test]
    fn cached_fit_matches_reference_fit_bitwise(seed in 0u64..u64::MAX) {
        let mut scratch = FitScratch::new();
        check(seed, &mut scratch)?;
        check(seed.wrapping_add(1), &mut scratch)?;
    }
}

proptest! {
    // About one case in nine runs the Gram path (the rest are
    // infeasible, collinear or intercept-only), so this takes more.
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn gram_fit_matches_householder_fit_within_tolerance(seed in 0u64..u64::MAX) {
        agreement(seed)?;
    }
}

/// Designs that repeat a column bit for bit, at random positions with
/// other columns between the copies: Householder QR (the solve of
/// [`reference_fit`]) calls every one singular, so sending them straight
/// to the ridge, as the fit does, changes no bit — the production and
/// reference paths both equal `reference_fit`, which is the ridge here.
#[test]
fn repeated_columns_are_singular_and_take_the_ridge() {
    let mut scratch = FitScratch::new();
    let (mut designs, mut fits) = (0, 0);
    for seed in 0u64.. {
        if designs == 2000 {
            break;
        }
        let case = Case::repeating(seed);
        let solvable = design_matrix(&case.bases, &case.points, &case.ctx)
            .is_some_and(|a| a.rows() >= a.cols());
        if !solvable {
            continue;
        }
        designs += 1;
        assert!(
            case.qr_singular(),
            "seed {seed}: QR solved a repeated column"
        );
        let pm = PointMatrix::from_rows(&case.points);
        let want = outcome(&reference_fit(
            &case.bases,
            &case.points,
            &case.targets,
            &case.ctx,
        ));
        let got = outcome(&fit_linear_weights_cached(
            &case.bases,
            &pm,
            &case.targets,
            &case.ctx,
            &mut scratch,
        ));
        assert_eq!(
            got, want,
            "seed {seed}: the production fit is not the ridge"
        );
        assert_eq!(outcome(&case.fit()), want, "seed {seed}: reference path");
        fits += usize::from(want.is_some());
    }
    assert!(fits >= 1900, "only {fits} of 2000 designs were fit");
}

/// The property above only means something if collinear designs actually
/// reach the ridge fallback; make sure a fixed batch of cases does.
#[test]
fn ridge_fallback_cases_are_covered() {
    let mut scratch = FitScratch::new();
    let ridge = (0..300u64)
        .map(|seed| check(seed, &mut scratch).expect("paths agree"))
        .filter(|&r| r)
        .count();
    assert!(
        ridge >= 50,
        "only {ridge}/300 cases took the ridge fallback"
    );
}

/// The tolerance property only means something if a fixed batch of
/// cases takes both the Gram path and the fallbacks.
#[test]
fn gram_and_fallback_cases_are_covered() {
    let kinds: Vec<Agreement> = (0..1000u64)
        .map(|seed| agreement(seed).expect("within tolerance"))
        .collect();
    let count = |kind: Agreement| kinds.iter().filter(|k| **k == kind).count();
    let (identical, gram) = (count(Agreement::Identical), count(Agreement::Gram));
    assert!(gram >= 60, "the Gram path ran on only {gram}/1000 cases");
    assert!(
        identical >= 500,
        "only {identical}/1000 cases were infeasible or fell back"
    );
}
