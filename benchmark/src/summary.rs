//! Order statistics over wall-clock samples.
//!
//! Every timing the benchmark reports is a median or a nearest-rank
//! percentile of per-round samples, never a mean: one preempted round on a
//! 2-core box must not move the number.

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is worth reporting (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample with
/// at least `p` percent of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    sorted.get(rank(sorted.len(), p).checked_sub(1)?).copied()
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples (0 when
/// there are none).
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(n.min(1), n)
}

/// How many samples lie strictly beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Sorted copy of `xs` (NaN-free input; samples are durations and counts).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the two middle samples when even), 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(xs, n=4)` returns, which is what the
/// driver computes spreads with. `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    // `j` is clamped before the interpolation weight is taken, so tiny
    // samples extrapolate past their ends exactly as Python does.
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Run-to-run spread as the driver defines it: interquartile distance as a
/// share of the median. 0 when undefined.
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    match quartiles(xs) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples is rank 90: exactly ten lie beyond it.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(110, 90.0), 11);
        // ... and 100 is the smallest count that has ten.
        assert!((1..100).all(|n| samples_beyond(n, 90.0) < MIN_BEYOND));
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        let (q1, q3) = quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]).unwrap();
        assert!((q1 - 15.0).abs() < 1e-12 && (q3 - 120.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[3.0, 3.0, 3.0]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
    }
}
