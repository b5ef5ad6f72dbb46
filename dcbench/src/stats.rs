//! Order statistics used by every metric: nearest-rank percentiles, the
//! median, and the windowed median that keeps one OS hiccup from moving a
//! latency metric.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. 0 for an empty slice.
pub fn percentile_sorted(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the `q` percentile's rank: a percentile is
/// only resolved when at least ten samples lie beyond it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// One latency metric: the median over the windows of each window's `q`
/// percentile, plus the smallest per-window sample count (printed so a
/// reader can see whether the percentile is resolved).
pub fn windowed_percentile(windows: &mut [Vec<u32>], q: f64) -> (f64, usize) {
    let mut per_window = Vec::with_capacity(windows.len());
    let mut min_n = usize::MAX;
    for w in windows.iter_mut() {
        w.sort_unstable();
        per_window.push(percentile_sorted(w, q));
        min_n = min_n.min(w.len());
    }
    (
        median(&per_window),
        if windows.is_empty() { 0 } else { min_n },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7], 0.99), 7.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn beyond_counts_the_tail() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(10, 0.5), 5);
    }

    #[test]
    fn one_bad_window_cannot_move_the_windowed_median() {
        let calm: Vec<u32> = (0..1000).map(|i| 100 + i % 10).collect();
        let mut hiccup = calm.clone();
        for s in hiccup.iter_mut().take(100) {
            *s = 50_000;
        }
        let mut quiet = vec![calm.clone(), calm.clone(), calm.clone(), calm.clone()];
        let mut noisy = vec![calm.clone(), hiccup, calm.clone(), calm];
        let (a, n) = windowed_percentile(&mut quiet, 0.99);
        let (b, _) = windowed_percentile(&mut noisy, 0.99);
        assert_eq!(a, b);
        assert_eq!(n, 1000);
    }
}
