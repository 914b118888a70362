//! Small statistics over repeated trials.

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for n < 2).
    pub stddev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
    /// Median (interpolated).
    pub median: f64,
}

impl Summary {
    /// Summarize a sample. Returns a zeroed summary for an empty slice.
    pub fn of(sample: &[f64]) -> Summary {
        if sample.is_empty() {
            return Summary { n: 0, mean: 0.0, stddev: 0.0, min: 0.0, max: 0.0, median: 0.0 };
        }
        let n = sample.len();
        let mean = sample.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            sample.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0)
        };
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        let median =
            if n % 2 == 1 { sorted[n / 2] } else { 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]) };
        Summary { n, mean, stddev: var.sqrt(), min: sorted[0], max: sorted[n - 1], median }
    }
}

/// Geometric mean of a positive sample (the paper reports geomean
/// speedups for the BST experiment). Returns 0 for an empty slice.
pub fn geomean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = sample
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean requires positive values, got {x}");
            x.ln()
        })
        .sum();
    (log_sum / sample.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        // Sample stddev of 1..4 = sqrt(5/3).
        assert!((s.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_odd_median_and_single() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).median, 2.0);
        let one = Summary::of(&[7.0]);
        assert_eq!(one.median, 7.0);
        assert_eq!(one.stddev, 0.0);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
    }

    #[test]
    fn geomean_known_values() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        geomean(&[1.0, 0.0]);
    }
}
