//! Order statistics for the benchmark's samples.

/// Nearest-rank percentile (`q` in `(0, 1]`) of `sorted`, which must be in
/// ascending order. Entries may be `f64::INFINITY`: a refused or shed
/// request is given an infinite latency, so it misses every limit and a
/// percentile that lands on it reads as infinite.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts `values` ascending (infinities last) and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    values
}

/// The median of `values`: the middle sample, or the mean of the two middle
/// samples for an even count.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Consecutive windows a run's samples are split into by
/// [`windowed_median`].
pub const RUN_WINDOWS: usize = 10;

/// The median over [`RUN_WINDOWS`] consecutive, near-equal windows of
/// `samples` of `stat` applied to each window (to all of `samples` when
/// there are fewer samples than windows). A stretch of the run in which
/// the host ran unusually slow or fast moves only the windows it covers.
pub fn windowed_median(samples: &[f64], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let k = RUN_WINDOWS.min(samples.len()).max(1);
    let per_window: Vec<f64> = (0..k)
        .map(|w| stat(&samples[w * samples.len() / k..(w + 1) * samples.len() / k]))
        .collect();
    median(&per_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = sorted((1..=10).map(f64::from).rev().collect());
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.99), 10.0);
        assert_eq!(percentile(&s, 0.01), 1.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn refused_requests_miss_every_limit() {
        // Two of ten requests were refused: p50 stays finite, p90 does not.
        let mut v: Vec<f64> = (1..=8).map(f64::from).collect();
        v.extend([f64::INFINITY, f64::INFINITY]);
        let s = sorted(v);
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.8), 8.0);
        assert!(percentile(&s, 0.9).is_infinite());
    }

    #[test]
    fn windowed_medians_ignore_a_slow_stretch() {
        // Ten windows of ten samples; two windows ran twice as slow.
        let mut v = vec![1.0; 100];
        v[..20].iter_mut().for_each(|x| *x = 2.0);
        let mean = |w: &[f64]| w.iter().sum::<f64>() / w.len() as f64;
        assert_eq!(windowed_median(&v, mean), 1.0);
        assert!((mean(&v) - 1.2).abs() < 1e-12);
        // Fewer samples than windows: one window per sample.
        assert_eq!(windowed_median(&[3.0, 1.0, 2.0], mean), 2.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
