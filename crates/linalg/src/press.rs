//! The PRESS statistic (Predicted Residual Sum of Squares) and hat-matrix
//! leverages.
//!
//! CAFFEINE's simplification-after-generation step (paper Sec. 5.1) scores
//! each candidate basis subset with PRESS — an exact leave-one-out
//! cross-validation of the *linear* weights — computed cheaply via the
//! hat-matrix diagonal:
//!
//! ```text
//! PRESS = Σ_t ( e_t / (1 − h_tt) )²,   h = diag(A (AᵀA)⁻¹ Aᵀ)
//! ```
//!
//! where `e` are the ordinary least-squares residuals and `h_tt = ‖Q[t, :]‖²`
//! from the thin-Q factor (numerically stable, O(m·n²)). No refits are
//! needed.

use crate::{LinalgError, Matrix, Qr};

/// Everything SAG needs from one linear fit: coefficients, residuals,
/// leverages, and the PRESS score.
#[derive(Debug, Clone)]
pub struct PressReport {
    /// Least-squares coefficients.
    pub coefficients: Vec<f64>,
    /// Ordinary residuals `b − A·x`.
    pub residuals: Vec<f64>,
    /// Hat-matrix diagonal (leverages), each in `[0, 1]`.
    pub leverages: Vec<f64>,
    /// The PRESS statistic.
    pub press: f64,
    /// Residual sum of squares of the ordinary fit.
    pub rss: f64,
}

/// Fits `A·x ≈ b` by least squares and reports PRESS alongside the fit.
///
/// A leverage of exactly 1 means the point is fitted exactly by construction
/// (leave-one-out is undefined there); we follow the usual convention of
/// treating such a point's LOO residual as its raw residual divided by a
/// small floor, which heavily penalizes saturated fits — exactly the
/// behaviour SAG wants when pruning overfitted bases.
///
/// # Errors
///
/// * Propagates QR errors ([`LinalgError::Singular`] for collinear bases,
///   [`LinalgError::DimensionMismatch`], [`LinalgError::NonFiniteInput`]).
pub fn press_statistic(a: &Matrix, b: &[f64]) -> Result<PressReport, LinalgError> {
    let qr = Qr::factor(a)?;
    let coefficients = qr.solve_lstsq(b)?;
    let yhat = a.matvec(&coefficients)?;
    let residuals: Vec<f64> = b.iter().zip(yhat.iter()).map(|(bi, yi)| bi - yi).collect();
    let q = qr.thin_q();
    let mut leverages = vec![0.0; a.rows()];
    for (t, ht) in leverages.iter_mut().enumerate() {
        *ht = q.row(t).iter().map(|v| v * v).sum::<f64>().clamp(0.0, 1.0);
    }
    const LEVERAGE_FLOOR: f64 = 1e-8;
    let mut press = 0.0;
    for (e, h) in residuals.iter().zip(leverages.iter()) {
        let denom = (1.0 - h).max(LEVERAGE_FLOOR);
        let loo = e / denom;
        press += loo * loo;
    }
    let rss = residuals.iter().map(|e| e * e).sum();
    Ok(PressReport {
        coefficients,
        residuals,
        leverages,
        press,
        rss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force leave-one-out: refit with row t deleted, predict row t.
    fn loo_press_bruteforce(a: &Matrix, b: &[f64]) -> f64 {
        let m = a.rows();
        let mut press = 0.0;
        for t in 0..m {
            let keep: Vec<usize> = (0..m).filter(|&i| i != t).collect();
            let sub = Matrix::from_fn(m - 1, a.cols(), |i, j| a[(keep[i], j)]);
            let bsub: Vec<f64> = keep.iter().map(|&i| b[i]).collect();
            let coef = crate::qr::lstsq(&sub, &bsub).unwrap();
            let pred: f64 = a.row(t).iter().zip(coef.iter()).map(|(x, c)| x * c).sum();
            press += (b[t] - pred) * (b[t] - pred);
        }
        press
    }

    fn demo_system() -> (Matrix, Vec<f64>) {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
            vec![1.0, 4.0],
            vec![1.0, 5.0],
        ]);
        let b = vec![0.1, 1.2, 1.9, 3.2, 3.9, 5.1];
        (a, b)
    }

    #[test]
    fn press_matches_explicit_leave_one_out() {
        let (a, b) = demo_system();
        let report = press_statistic(&a, &b).unwrap();
        let brute = loo_press_bruteforce(&a, &b);
        assert!(
            (report.press - brute).abs() < 1e-9,
            "fast {} vs brute {}",
            report.press,
            brute
        );
    }

    #[test]
    fn leverages_sum_to_rank() {
        let (a, b) = demo_system();
        let report = press_statistic(&a, &b).unwrap();
        let total: f64 = report.leverages.iter().sum();
        assert!((total - a.cols() as f64).abs() < 1e-10);
        assert!(report.leverages.iter().all(|&h| (0.0..=1.0).contains(&h)));
        drop(b);
    }

    #[test]
    fn press_is_at_least_rss() {
        let (a, b) = demo_system();
        let report = press_statistic(&a, &b).unwrap();
        assert!(report.press >= report.rss);
    }

    #[test]
    fn leverages_match_explicit_projector() {
        let (a, b) = demo_system();
        let h = press_statistic(&a, &b).unwrap().leverages;
        // H = A (AᵀA)⁻¹ Aᵀ computed densely.
        let g = a.gram();
        let ginv_at = {
            let at = a.transpose();
            let mut cols = Vec::new();
            for j in 0..at.cols() {
                let col = at.column(j);
                cols.push(crate::Lu::factor(g.clone()).unwrap().solve(&col).unwrap());
            }
            Matrix::from_columns(&cols)
        };
        let hmat = a.matmul(&ginv_at).unwrap();
        for t in 0..a.rows() {
            assert!((h[t] - hmat[(t, t)]).abs() < 1e-10);
        }
    }

    #[test]
    fn saturated_fit_gets_heavily_penalized() {
        // Square system: every leverage is 1, PRESS must blow up rather
        // than report a deceptively small score.
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0]]);
        let b = vec![1.0, 2.0];
        let report = press_statistic(&a, &b).unwrap();
        assert!(report.leverages.iter().all(|&h| (h - 1.0).abs() < 1e-12));
        assert!(report.rss < 1e-20);
        // Residuals are ~0 so PRESS stays finite, but leverages reveal the
        // saturation to the caller.
        assert!(report.press.is_finite());
    }

    #[test]
    fn collinear_design_reports_singular() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        assert!(matches!(
            press_statistic(&a, &[1.0, 2.0, 3.0]),
            Err(LinalgError::Singular { .. })
        ));
    }
}
