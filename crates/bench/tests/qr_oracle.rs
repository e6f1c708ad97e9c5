//! The column-major Householder QR is pinned, bit for bit, to the
//! row-major kernel it replaced (`caffeine_bench::perf::ReferenceQr`):
//! the factor `R`, the rank estimate, and every least-squares solution —
//! including errors — agree exactly. The intercept-folded entry point the
//! fitness path uses (`Qr::factor_reflected` + `back_substitute` on
//! columns and targets reflected once through `InterceptReflector`) is
//! pinned to the plain factor and solve of `[1 | A]`. The ridge fallback built from
//! columns is pinned to the one built from the assembled matrix and to
//! the row-major walk it used to build its normal equations with
//! (`caffeine_bench::perf::reference_lstsq_ridge_columns`).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use caffeine_bench::perf::{reference_lstsq_ridge_columns, ReferenceQr};
use caffeine_linalg::{
    lstsq_ridge, lstsq_ridge_columns, InterceptReflector, LinalgError, Matrix, Qr,
};

/// A column of one of the shapes least-squares designs take in practice,
/// plus the degenerate ones: generic, integer-valued (exact
/// cancellations), zero, a duplicate or multiple of an earlier column
/// (singular designs), and tiny or huge scales.
fn column(rng: &mut StdRng, m: usize, earlier: &[Vec<f64>]) -> Vec<f64> {
    let kind = rng.gen_range(0..8u32);
    match kind {
        0 => vec![1.0; m],
        1 => (0..m).map(|_| f64::from(rng.gen_range(-3..4i32))).collect(),
        2 => vec![0.0; m],
        3 | 4 if !earlier.is_empty() => {
            let src = &earlier[rng.gen_range(0..earlier.len())];
            let scale = if kind == 3 { 1.0 } else { -2.5 };
            src.iter().map(|v| v * scale).collect()
        }
        5 => (0..m).map(|_| rng.gen_range(-1.0..1.0) * 1e-150).collect(),
        6 => (0..m).map(|_| rng.gen_range(-1.0..1.0) * 1e120).collect(),
        _ => (0..m).map(|_| rng.gen_range(-2.0..2.0)).collect(),
    }
}

/// A column whose entries are often exact zeros of either sign — the
/// entries the row-major Gram walk skips — mixed with generic values.
fn signed_zero_column(rng: &mut StdRng, m: usize) -> Vec<f64> {
    (0..m)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from(rng.gen_range(-3..4i32)),
            _ => rng.gen_range(-2.0..2.0),
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn matrix_bits(a: &Matrix) -> Vec<u64> {
    (0..a.rows())
        .flat_map(|i| (0..a.cols()).map(move |j| (i, j)))
        .map(|ij| a[ij].to_bits())
        .collect()
}

/// Solutions compare by bits; errors by their description.
fn outcome(r: Result<Vec<f64>, LinalgError>) -> Result<Vec<u64>, String> {
    r.map(|x| bits(&x)).map_err(|e| format!("{e:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn column_major_qr_matches_row_major_reference_bitwise(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=16usize);
        let m = match rng.gen_range(0..4u32) {
            0 => n,
            1 => rng.gen_range(n..=n + 3),
            _ => rng.gen_range(n..=300),
        };
        let mut cols: Vec<Vec<f64>> = Vec::with_capacity(n);
        for _ in 0..n {
            let c = column(&mut rng, m, &cols);
            cols.push(c);
        }
        let a = Matrix::from_columns(&cols);
        let slices: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();

        let reference = ReferenceQr::factor(&a).unwrap();
        let qr = Qr::factor(&a).unwrap();

        prop_assert_eq!(matrix_bits(&qr.r()), matrix_bits(&reference.r()));
        for tol in [1e-12, 1e-6, 0.5] {
            prop_assert_eq!(qr.rank(tol), reference.rank(tol));
        }

        // A generic right-hand side and one inside the column space.
        let noise: Vec<f64> = (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let x_true: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(-4..5i32))).collect();
        let fitted = a.matvec(&x_true).unwrap();
        for b in [&noise, &fitted] {
            let expect = outcome(reference.solve_lstsq(b));
            prop_assert_eq!(&outcome(qr.solve_lstsq(b)), &expect);
            let mut rhs = b.clone();
            prop_assert_eq!(&outcome(qr.solve_lstsq_in_place(&mut rhs)), &expect);
        }

        // The ridge fallback from columns equals the matrix-built one.
        prop_assert_eq!(
            outcome(lstsq_ridge_columns(&slices, &noise, 1e-9)),
            outcome(lstsq_ridge(&a, &noise, 1e-9))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn intercept_folded_qr_matches_plain_qr_bitwise(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = rng.gen_range(0..=15usize);
        let m = match rng.gen_range(0..4u32) {
            0 => k + 1,
            1 => rng.gen_range(k + 1..=k + 4),
            _ => rng.gen_range(k + 1..=300),
        };
        // The design [1 | A]: the intercept counts as an earlier column,
        // so A may duplicate or scale it too.
        let mut design: Vec<Vec<f64>> = vec![vec![1.0; m]];
        for _ in 0..k {
            let c = if design.len() > 1 && rng.gen_range(0..6u32) == 0 {
                // Near-collinear: an earlier column plus a tiny perturbation.
                let src = &design[rng.gen_range(1..design.len())];
                src.iter().map(|v| v + rng.gen_range(-1.0..1.0) * 1e-9).collect()
            } else {
                column(&mut rng, m, &design)
            };
            design.push(c);
        }
        let a = Matrix::from_columns(&design);
        let plain = Qr::factor(&a).unwrap();

        let h0 = InterceptReflector::new(m);
        let images: Vec<Vec<f64>> = design[1..]
            .iter()
            .map(|c| {
                let mut image = c.clone();
                h0.reflect_column(&mut image);
                image
            })
            .collect();
        let image_slices: Vec<&[f64]> = images.iter().map(Vec::as_slice).collect();
        let noise: Vec<f64> = (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let x_true: Vec<f64> = (0..=k).map(|_| f64::from(rng.gen_range(-4..5i32))).collect();
        let fitted = a.matvec(&x_true).unwrap();
        let mut folded = Qr::default();
        // Leave a stale, differently shaped factorization behind first.
        folded
            .factor_reflected(&InterceptReflector::new(3), &[&[1.0, 2.0, 3.0]], &mut [0.0; 3])
            .unwrap();
        for b in [&noise, &fitted] {
            let mut rhs = b.clone();
            h0.reflect_rhs(&mut rhs).unwrap();
            folded.factor_reflected(&h0, &image_slices, &mut rhs).unwrap();

            prop_assert_eq!(matrix_bits(&folded.r()), matrix_bits(&plain.r()));
            for tol in [1e-12, 1e-6, 0.5] {
                prop_assert_eq!(folded.rank(tol), plain.rank(tol));
            }
            let mut plain_rhs = b.clone();
            let expect = outcome(plain.solve_lstsq_in_place(&mut plain_rhs));
            prop_assert_eq!(bits(&rhs), bits(&plain_rhs));
            prop_assert_eq!(outcome(folded.back_substitute(&rhs)), expect);
        }
    }

    #[test]
    fn column_dot_ridge_matches_row_major_walk_bitwise(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=16usize);
        let m = rng.gen_range(1..=300usize);
        let mut cols: Vec<Vec<f64>> = Vec::with_capacity(n);
        for _ in 0..n {
            let c = if rng.gen_range(0..2u32) == 0 {
                signed_zero_column(&mut rng, m)
            } else {
                column(&mut rng, m, &cols)
            };
            cols.push(c);
        }
        let slices: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let b = signed_zero_column(&mut rng, m);
        for lambda in [1e-9, 0.0] {
            prop_assert_eq!(
                outcome(lstsq_ridge_columns(&slices, &b, lambda)),
                outcome(reference_lstsq_ridge_columns(&slices, &b, lambda))
            );
        }
    }
}

#[test]
fn guards_match_the_reference() {
    let wide = Matrix::from_rows(&[vec![1.0, 2.0]]);
    assert!(ReferenceQr::factor(&wide).is_err());
    assert!(Qr::factor(&wide).is_err());
    // [1 | a] with one row is wide.
    assert!(matches!(
        Qr::default().factor_reflected(&InterceptReflector::new(1), &[&[2.0]], &mut [0.0]),
        Err(LinalgError::DimensionMismatch(_))
    ));

    let nan = Matrix::from_rows(&[vec![1.0], vec![f64::NAN]]);
    assert!(matches!(
        Qr::factor(&nan),
        Err(LinalgError::NonFiniteInput { .. })
    ));
    let h0 = InterceptReflector::new(2);
    assert!(matches!(
        Qr::default().factor_reflected(&h0, &[&[1.0, f64::INFINITY]], &mut [0.0; 2]),
        Err(LinalgError::NonFiniteInput { .. })
    ));
    for (images, rhs_len) in [
        (&[&[1.0, 2.0][..], &[1.0][..]][..], 2),
        (&[&[1.0, 2.0][..]][..], 3),
    ] {
        assert!(matches!(
            Qr::default().factor_reflected(&h0, images, &mut vec![0.0; rhs_len]),
            Err(LinalgError::DimensionMismatch(_))
        ));
    }
    for b in [vec![f64::NAN, 0.0], vec![1.0]] {
        let mut reflected = b.clone();
        assert_eq!(
            format!("{:?}", h0.reflect_rhs(&mut reflected)),
            format!(
                "{:?}",
                Qr::factor(&Matrix::from_rows(&[vec![1.0], vec![1.0]]))
                    .unwrap()
                    .solve_lstsq(&b)
                    .map(|_| ())
            )
        );
    }

    let a = Matrix::from_rows(&[vec![1.0], vec![1.0]]);
    let qr = Qr::factor(&a).unwrap();
    for b in [vec![f64::INFINITY, 0.0], vec![1.0]] {
        assert_eq!(
            outcome(qr.solve_lstsq(&b)),
            outcome(ReferenceQr::factor(&a).unwrap().solve_lstsq(&b))
        );
    }
}
