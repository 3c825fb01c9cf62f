//! Medians, quartiles and the latency summary the tables print.

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them — the rule the driver applies to our output.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in cuts.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    cuts
}

/// Interquartile range as a share of the median.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// p50 plus the highest of p90/p95/p99/p99.9 that still has at least ten
/// samples beyond it, and the sample count.
#[derive(Clone, Debug)]
pub struct Latency {
    pub count: usize,
    pub p50: f64,
    /// `(percentile, value)`; `None` below 100 samples.
    pub tail: Option<(f64, f64)>,
}

pub fn latency(values: &[f64]) -> Latency {
    assert!(!values.is_empty(), "latency summary of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Percentiles in thousandths, so that the counts are exact.
    let at = |permille: usize| sorted[(n * permille / 1000).min(n - 1)];
    let tail = [(99.9, 999), (99.0, 990), (95.0, 950), (90.0, 900)]
        .into_iter()
        .find(|&(_, permille)| n * (1000 - permille) >= 10 * 1000)
        .map(|(p, permille)| (p, at(permille)));
    Latency {
        count: n,
        p50: at(500),
        tail,
    }
}

impl Latency {
    /// `p50 12.3 / p99 45.6 us (n = 4000)`.
    pub fn render(&self, unit: &str) -> String {
        match self.tail {
            Some((p, value)) => format!(
                "p50 {:.1} / p{} {:.1} {unit} (n = {})",
                self.p50, p, value, self.count
            ),
            None => format!("p50 {:.1} {unit} (n = {})", self.p50, self.count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (0..4000).map(f64::from).collect();
        assert_eq!(latency(&values).tail.map(|t| t.0), Some(99.0));
        let values: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(latency(&values).tail.is_none());
        let values: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(latency(&values).tail.map(|t| t.0), Some(99.9));
    }
}
