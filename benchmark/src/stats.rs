//! Estimators: quartiles, medians and the tail percentile that keeps
//! ten samples beyond it.

/// Sort a copy of `xs` ascending (NaN-free input).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Quantile `q` of ascending `sorted` by the exclusive method — the one
/// Python's `statistics.quantiles(values, n=4)` uses, so the spreads
/// computed here match the ones the acceptance pipeline computes.
/// Clamps to the extremes when the sample is too small to interpolate.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let pos = q * (n as f64 + 1.0);
    if pos <= 1.0 {
        return sorted[0];
    }
    if pos >= n as f64 {
        return sorted[n - 1];
    }
    let lo = pos.floor() as usize; // 1-based rank of the lower neighbour
    let frac = pos - lo as f64;
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5)
}

/// Lower quartile of an unsorted sample (kept in the run manifest
/// beside the floor, the minimum and the median of the iteration
/// times).
pub fn lower_quartile(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.25)
}

/// Interquartile range as a share of the median — the run-to-run spread
/// the acceptance pipeline holds against each metric's bound.
pub fn spread(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let med = quantile(&s, 0.5);
    if med == 0.0 {
        return 0.0;
    }
    ((quantile(&s, 0.75) - quantile(&s, 0.25)) / med).abs()
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_GUARD: usize = 10;

/// The highest percentile not above `q` that still has [`TAIL_GUARD`]
/// samples beyond it (never below the median). Returns the value and
/// the percentile rank actually used, so a caller asking for p99 of 256
/// samples learns it got p96.1.
pub fn tail_percentile(sorted: &[f64], q: f64) -> (f64, f64) {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let guarded = n.saturating_sub(TAIL_GUARD + 1);
    let idx = wanted.min(guarded).max((n - 1) / 2);
    (sorted[idx], (idx + 1) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.25), 2.75);
        assert_eq!(quantile(&xs, 0.5), 5.5);
        assert_eq!(quantile(&xs, 0.75), 8.25);
        assert_eq!(spread(&xs), 1.0);
        // Tiny samples clamp instead of extrapolating.
        assert_eq!(quantile(&[3.0, 9.0], 0.25), 3.0);
        assert_eq!(quantile(&[3.0], 0.75), 3.0);
        assert_eq!(lower_quartile(&[9.0, 1.0, 5.0]), 1.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        let (v, rank) = tail_percentile(&big, 0.99);
        assert_eq!(v, 989.0, "p99 of 1000 leaves exactly ten beyond");
        assert_eq!(rank, 0.99);

        // 256 samples cannot support p99: fall back to the rank that
        // leaves ten beyond, and say so.
        let mid: Vec<f64> = (0..256).map(f64::from).collect();
        let (v, rank) = tail_percentile(&mid, 0.99);
        assert_eq!(v, 245.0);
        assert_eq!(mid.len() - 1 - 245, TAIL_GUARD);
        assert!((rank - 246.0 / 256.0).abs() < 1e-12);

        // Below 22 samples the guard would cross the median: stop there.
        let small: Vec<f64> = (0..8).map(f64::from).collect();
        assert_eq!(tail_percentile(&small, 0.99).0, 3.0);
        assert_eq!(tail_percentile(&[7.0], 0.99), (7.0, 1.0));
    }
}
