//! The production fit path (`fit_linear_weights_cached`: tape columns,
//! column cache, QR factored straight from the column slices) equals the
//! reference path (`fit_linear_weights`: tree-walk columns, an assembled
//! design matrix, `lstsq`) bit for bit — coefficients, predictions and
//! the feasible/infeasible verdict — including the collinear designs that
//! take the ridge fallback.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use caffeine_core::expr::EvalContext;
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
fn outcome(o: FitOutcome) -> Option<(Vec<u64>, Vec<u64>)> {
    match o {
        FitOutcome::Fit(f) => Some((bits(&f.coefficients), bits(&f.predictions))),
        FitOutcome::Infeasible => None,
    }
}

/// One random fit problem. Returns whether its design took the ridge
/// fallback (QR reported it singular) on the reference path.
fn check(seed: u64, scratch: &mut FitScratch) -> Result<bool, TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_vars = rng.gen_range(1..=4usize);
    let grammar = match rng.gen_range(0..3u32) {
        0 => GrammarConfig::paper_full(n_vars),
        1 => GrammarConfig::rational(n_vars),
        _ => GrammarConfig::polynomial(n_vars),
    };
    let gen = RandomExprGen::new(&grammar);
    let ctx = EvalContext::new(grammar.weights);

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

    let pm = PointMatrix::from_rows(&points);
    let expect = outcome(fit_linear_weights(&bases, &points, &targets, &ctx));
    let got = outcome(fit_linear_weights_cached(
        &bases, &pm, &targets, &ctx, scratch,
    ));
    prop_assert_eq!(got, expect);

    let ridge = design_matrix(&bases, &points, &ctx)
        .filter(|a| a.rows() >= a.cols())
        .is_some_and(|a| {
            matches!(
                Qr::factor(&a).and_then(|qr| qr.solve_lstsq(&targets)),
                Err(LinalgError::Singular { .. })
            )
        });
    Ok(ridge)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// One scratch serves every case, so its cache, point-set rebinding
    /// and reused QR storage are exercised too.
    #[test]
    fn cached_fit_matches_reference_fit_bitwise(seed in 0u64..u64::MAX) {
        let mut scratch = FitScratch::new();
        check(seed, &mut scratch)?;
        check(seed.wrapping_add(1), &mut scratch)?;
    }
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
