//! Statistics helpers: tail percentiles under the ten-samples-beyond
//! rule, medians and quartiles across runs, and metric-name validation.

/// A tail percentile together with the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (the wanted one, or lower when
    /// the sample is too small to have ten samples beyond it).
    pub pct: f64,
    /// The value at that percentile.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The `wanted` percentile of `samples`, or the highest percentile with at
/// least [`TAIL_SAMPLES_BEYOND`] samples beyond it when the sample is too
/// small for `wanted`. Never reports below the median. Nearest-rank.
///
/// Returns `None` for an empty sample.
pub fn tail_percentile(samples: &[f64], wanted: f64) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let supported = 100.0 * (1.0 - TAIL_SAMPLES_BEYOND as f64 / n as f64);
    let pct = wanted.min(supported).max(50.0);
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        pct,
        value: nearest_rank(&sorted, pct),
        n,
    })
}

/// Nearest-rank percentile of an ascending sample.
fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The arithmetic mean.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method).
///
/// Returns `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median (`None` when the
/// median is zero or the sample too small).
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// `true` when `name` is a valid metric name: 1–64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_reports_p99_when_the_sample_supports_it() {
        let samples: Vec<f64> = (1..=2000).map(f64::from).collect();
        let tail = tail_percentile(&samples, 99.0).unwrap();
        assert_eq!(tail.pct, 99.0);
        assert_eq!(tail.value, 1980.0);
        assert_eq!(tail.n, 2000);
        // 20 samples lie beyond the reported value.
        assert!(samples.iter().filter(|&&v| v > tail.value).count() >= 10);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let tail = tail_percentile(&samples, 99.0).unwrap();
        assert!((tail.pct - 90.0).abs() < 1e-9, "{tail:?}");
        assert_eq!(tail.value, 90.0);
        assert_eq!(samples.iter().filter(|&&v| v > tail.value).count(), 10);
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        let samples = [5.0, 1.0, 3.0, 2.0, 4.0];
        let tail = tail_percentile(&samples, 99.0).unwrap();
        assert_eq!(tail.pct, 50.0);
        assert_eq!(tail.value, 3.0);
        assert_eq!(tail_percentile(&[], 99.0), None);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([7, 1, 3, 9, 5], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0, 9.0, 5.0]), Some([2.0, 5.0, 8.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_spread(&ten).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "setup_s",
            "core.generation_ms",
            "serve.http_parse_us",
            "p-99",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".x",
            "has space",
            "slash/name",
            "µs",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
