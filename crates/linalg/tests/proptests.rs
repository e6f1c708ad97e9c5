//! Property-based tests for the linear-algebra substrate.

use caffeine_linalg::{lstsq, lstsq_ridge, nnls, press_statistic, Lu, Matrix, Qr};
use proptest::prelude::*;

/// Strategy: a well-conditioned square matrix (diagonally dominant).
fn square_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |vals| {
        Matrix::from_fn(n, n, |i, j| {
            let v = vals[i * n + j];
            if i == j {
                v + 3.0 * n as f64
            } else {
                v
            }
        })
    })
}

/// Strategy: a tall matrix with bounded entries and a distinct leading
/// constant column (regression-like).
fn tall_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f64..2.0, rows * cols).prop_map(move |vals| {
        Matrix::from_fn(rows, cols, |i, j| {
            if j == 0 {
                1.0
            } else {
                // Spread the columns so collinearity is unlikely.
                vals[i * cols + j] + (i as f64) * 1e-3 * (j as f64)
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solutions_have_small_residual(
        a in square_matrix(6),
        b in proptest::collection::vec(-10.0f64..10.0, 6),
    ) {
        let x = Lu::factor(a.clone()).unwrap().solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (l, r) in ax.iter().zip(b.iter()) {
            prop_assert!((l - r).abs() < 1e-8);
        }
    }

    #[test]
    fn qr_reconstruction_and_orthonormality(a in tall_matrix(10, 4)) {
        let qr = Qr::factor(&a).unwrap();
        let q = qr.thin_q();
        let recon = q.matmul(&qr.r()).unwrap();
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                prop_assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-9);
            }
        }
        let qtq = q.transpose().matmul(&q).unwrap();
        for i in 0..a.cols() {
            for j in 0..a.cols() {
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((qtq[(i, j)] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn lstsq_residual_orthogonal_to_column_space(
        a in tall_matrix(12, 3),
        b in proptest::collection::vec(-5.0f64..5.0, 12),
    ) {
        if let Ok(x) = lstsq(&a, &b) {
            let yhat = a.matvec(&x).unwrap();
            let resid: Vec<f64> = b.iter().zip(yhat.iter()).map(|(u, v)| u - v).collect();
            let atr = a.conj_t_matvec(&resid).unwrap();
            let scale = a.max_abs().max(1.0) * resid.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for v in atr {
                prop_assert!(v.abs() < 1e-7 * scale);
            }
        }
    }

    #[test]
    fn ridge_never_fails_on_finite_input(
        a in tall_matrix(8, 3),
        b in proptest::collection::vec(-5.0f64..5.0, 8),
    ) {
        let x = lstsq_ridge(&a, &b, 1e-8).unwrap();
        prop_assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn nnls_is_feasible_and_no_worse_than_zero(
        a in tall_matrix(8, 4),
        b in proptest::collection::vec(-5.0f64..5.0, 8),
    ) {
        let sol = nnls(&a, &b).unwrap();
        prop_assert!(sol.x.iter().all(|&v| v >= 0.0));
        // Objective must be at least as good as the all-zero point.
        let zero_resid = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(sol.residual_norm <= zero_resid + 1e-9);
    }

    #[test]
    fn press_dominates_rss(
        a in tall_matrix(10, 3),
        b in proptest::collection::vec(-5.0f64..5.0, 10),
    ) {
        if let Ok(report) = press_statistic(&a, &b) {
            prop_assert!(report.press >= report.rss - 1e-12);
            let total: f64 = report.leverages.iter().sum();
            prop_assert!((total - a.cols() as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn det_is_multiplicative_under_transpose(a in square_matrix(4)) {
        let d1 = Lu::factor(a.clone()).unwrap().det();
        let d2 = Lu::factor(a.transpose()).unwrap().det();
        prop_assert!((d1 - d2).abs() < 1e-6 * d1.abs().max(1.0));
    }
}
