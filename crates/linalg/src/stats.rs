//! Scalar statistics and the regression quality measures used in the
//! CAFFEINE paper's evaluation.
//!
//! The paper reports "normalized mean-squared error" percentages that are
//! directly comparable to the posynomial paper's quality-of-fit measures
//! `q_wc` (training) and `q_tc` (testing) with denominator constant `c = 0`.
//! Those are *relative RMS errors*:
//!
//! ```text
//! q(ŷ, y) = sqrt( (1/N) Σ_t ((ŷ_t − y_t) / (|y_t| + c))² )
//! ```
//!
//! We provide that measure ([`relative_rms_error`]) plus the
//! variance-normalized alternative ([`nmse`]) and plain [`rmse`].

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Root-mean-square of a slice; `0.0` when empty.
pub fn rms(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v * v).sum::<f64>() / values.len() as f64).sqrt()
}

/// Root-mean-squared error between predictions and targets.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn rmse(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "length mismatch");
    if predicted.is_empty() {
        return 0.0;
    }
    let ss: f64 = predicted
        .iter()
        .zip(actual.iter())
        .map(|(p, a)| (p - a) * (p - a))
        .sum();
    (ss / predicted.len() as f64).sqrt()
}

/// The Daems-style relative RMS error `q` with denominator constant `c`
/// (the paper's `qwc`/`qtc` with `c = 0`).
///
/// A tiny floor keeps the measure defined when a target sample is exactly
/// zero; circuits whose performance crosses zero should be modeled with a
/// nonzero `c` (as \[6\] allows) or with [`nmse`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn relative_rms_error(predicted: &[f64], actual: &[f64], c: f64) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "length mismatch");
    if predicted.is_empty() {
        return 0.0;
    }
    const FLOOR: f64 = 1e-30;
    let ss: f64 = predicted
        .iter()
        .zip(actual.iter())
        .map(|(p, a)| {
            let denom = (a.abs() + c).max(FLOOR);
            let e = (p - a) / denom;
            e * e
        })
        .sum();
    (ss / predicted.len() as f64).sqrt()
}

/// Variance-normalized root error: `sqrt( Σ(ŷ−y)² / Σ(y−ȳ)² )`.
///
/// Equals 1.0 for the best constant model, which makes it convenient for
/// sanity checks; the paper's headline numbers use
/// [`relative_rms_error`] instead.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn nmse(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "length mismatch");
    if predicted.is_empty() {
        return 0.0;
    }
    let ss_err: f64 = predicted
        .iter()
        .zip(actual.iter())
        .map(|(p, a)| (p - a) * (p - a))
        .sum();
    let m = mean(actual);
    let ss_tot: f64 = actual.iter().map(|a| (a - m) * (a - m)).sum();
    if ss_tot <= 0.0 {
        // Constant target: any exact fit gives 0, anything else is infinite
        // in spirit; report the raw error scale instead.
        return ss_err.sqrt();
    }
    (ss_err / ss_tot).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn rmse_zero_for_perfect_fit() {
        let y = [1.0, -2.0, 3.0];
        assert_eq!(rmse(&y, &y), 0.0);
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn relative_error_matches_hand_computation() {
        let actual = [2.0, -4.0];
        let pred = [2.2, -4.4]; // 10% relative error at each point
        let q = relative_rms_error(&pred, &actual, 0.0);
        assert!((q - 0.1).abs() < 1e-12);
    }

    #[test]
    fn relative_error_with_constant_c_softens_small_targets() {
        let actual = [0.001];
        let pred = [0.002];
        let q0 = relative_rms_error(&pred, &actual, 0.0);
        let q1 = relative_rms_error(&pred, &actual, 1.0);
        assert!(q0 > 0.9); // 100% relative error
        assert!(q1 < 0.01); // softened by c
    }

    #[test]
    fn zero_target_does_not_divide_by_zero() {
        let q = relative_rms_error(&[1.0], &[0.0], 0.0);
        assert!(q.is_finite());
    }

    #[test]
    fn nmse_of_mean_model_is_one() {
        let y = [1.0, 2.0, 3.0, 4.0];
        let m = mean(&y);
        let pred = vec![m; 4];
        assert!((nmse(&pred, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nmse_perfect_fit_is_zero() {
        let y = [1.0, 2.0, 3.0];
        assert_eq!(nmse(&y, &y), 0.0);
    }

    #[test]
    fn rms_basics() {
        assert_eq!(rms(&[]), 0.0);
        assert!((rms(&[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
    }
}
