//! Order statistics and the regression-bound rule.
//!
//! Everything the harness reports is a median or a percentile, and the
//! accept/reject rule of `--self-check` is the one the merge pipeline
//! applies: a metric regressed when the second median is worse than the
//! first by more than the bound recorded in `BENCHMARK.json`.

/// Whether a smaller or a larger value of a metric is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    v
}

/// The `p`-th percentile (`0.0..=100.0`) with linear interpolation
/// between closest ranks. Panics on an empty sample: every caller has
/// measured at least one repetition.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let v = sorted(values);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median (50th percentile).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method), because that is the function
/// the pipeline's noise check uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let v = sorted(values);
    let (n, m) = (4usize, v.len() + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median: the spread the
/// pipeline compares against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Per position, the smallest value any pass measured there.
///
/// Interference on a shared host comes in bursts and only ever adds
/// time, so the fastest execution of a block of work is the estimate of
/// its undisturbed cost; a median over passes moves with how much of the
/// run the bursts covered. Every pass must have the same length.
pub fn floor_per_position<'a, T: Copy + PartialOrd + 'a>(
    passes: impl IntoIterator<Item = &'a [T]>,
) -> Vec<T> {
    let mut passes = passes.into_iter();
    let mut floor = passes.next().expect("at least one pass").to_vec();
    for pass in passes {
        assert_eq!(pass.len(), floor.len(), "passes differ in length");
        for (f, &v) in floor.iter_mut().zip(pass) {
            if v < *f {
                *f = v;
            }
        }
    }
    floor
}

/// The smallest of `values` (infinite for none): the fastest of several
/// timings of the same work, for the same reason.
pub fn fastest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// By what share of `first` the value `second` is *worse* (negative when
/// it is better).
pub fn worsening(first: f64, second: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// The regression rule: `second` may be worse than `first` by at most
/// `bound` (a share of `first`).
pub fn within_bound(first: f64, second: f64, better: Better, bound: f64) -> bool {
    worsening(first, second, better) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert_eq!(percentile(&[10.0, 20.0], 25.0), 12.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn floor_takes_each_position_from_its_fastest_pass() {
        // A burst spoils the tail of pass 0 and the head of pass 1.
        let passes = [vec![10u64, 11, 30, 31], vec![25, 26, 12, 13], vec![11, 10, 13, 12]];
        assert_eq!(floor_per_position(passes.iter().map(Vec::as_slice)), vec![10, 10, 12, 12]);
        assert_eq!(floor_per_position([&[1.5, 0.5][..]]), vec![1.5, 0.5]);
        assert_eq!(fastest([3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn bound_comparison_respects_direction() {
        assert!((worsening(100.0, 104.0, Better::Lower) - 0.04).abs() < 1e-12);
        assert!((worsening(100.0, 104.0, Better::Higher) + 0.04).abs() < 1e-12);
        assert!(within_bound(100.0, 104.9, Better::Lower, 0.05));
        assert!(!within_bound(100.0, 105.1, Better::Lower, 0.05));
        // Getting better never trips the bound.
        assert!(within_bound(100.0, 50.0, Better::Lower, 0.05));
        assert!(!within_bound(100.0, 90.0, Better::Higher, 0.05));
    }
}
