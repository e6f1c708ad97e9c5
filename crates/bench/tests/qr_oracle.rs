//! The column-major Householder QR is pinned, bit for bit, to the
//! row-major kernel it replaced (`caffeine_bench::perf::ReferenceQr`):
//! the factor `R`, the rank estimate, and every least-squares solution —
//! including errors — agree exactly, through both the matrix entry point
//! and the in-place column entry point. The ridge fallback built from
//! columns is pinned to the one built from the assembled matrix.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use caffeine_bench::perf::ReferenceQr;
use caffeine_linalg::{lstsq_ridge, lstsq_ridge_columns, LinalgError, Matrix, Qr};

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
        let mut reused = Qr::default();
        // Leave a stale, differently shaped factorization behind first.
        reused.factor_columns(&[&[1.0, 2.0, 3.0]]).unwrap();
        reused.factor_columns(&slices).unwrap();

        let r_ref = matrix_bits(&reference.r());
        prop_assert_eq!(&matrix_bits(&qr.r()), &r_ref);
        prop_assert_eq!(&matrix_bits(&reused.r()), &r_ref);
        for tol in [1e-12, 1e-6, 0.5] {
            prop_assert_eq!(qr.rank(tol), reference.rank(tol));
            prop_assert_eq!(reused.rank(tol), reference.rank(tol));
        }

        // A generic right-hand side and one inside the column space.
        let noise: Vec<f64> = (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let x_true: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(-4..5i32))).collect();
        let fitted = a.matvec(&x_true).unwrap();
        for b in [&noise, &fitted] {
            let expect = outcome(reference.solve_lstsq(b));
            prop_assert_eq!(&outcome(qr.solve_lstsq(b)), &expect);
            let mut rhs = b.clone();
            prop_assert_eq!(&outcome(reused.solve_lstsq_in_place(&mut rhs)), &expect);
        }

        // The ridge fallback from columns equals the matrix-built one.
        prop_assert_eq!(
            outcome(lstsq_ridge_columns(&slices, &noise, 1e-9)),
            outcome(lstsq_ridge(&a, &noise, 1e-9))
        );
    }
}

#[test]
fn guards_match_the_reference() {
    let wide = Matrix::from_rows(&[vec![1.0, 2.0]]);
    assert!(ReferenceQr::factor(&wide).is_err());
    assert!(Qr::factor(&wide).is_err());
    assert!(Qr::default().factor_columns(&[&[1.0], &[2.0]]).is_err());

    let nan = Matrix::from_rows(&[vec![1.0], vec![f64::NAN]]);
    assert!(matches!(
        Qr::factor(&nan),
        Err(LinalgError::NonFiniteInput { .. })
    ));
    assert!(matches!(
        Qr::default().factor_columns(&[&[1.0, f64::INFINITY]]),
        Err(LinalgError::NonFiniteInput { .. })
    ));
    assert!(matches!(
        Qr::default().factor_columns(&[&[1.0, 2.0], &[1.0]]),
        Err(LinalgError::DimensionMismatch(_))
    ));

    let a = Matrix::from_rows(&[vec![1.0], vec![1.0]]);
    let qr = Qr::factor(&a).unwrap();
    for b in [vec![f64::INFINITY, 0.0], vec![1.0]] {
        assert_eq!(
            outcome(qr.solve_lstsq(&b)),
            outcome(ReferenceQr::factor(&a).unwrap().solve_lstsq(&b))
        );
    }
}
