//! Small order statistics over measured samples.

use adpf_obs::Histogram;

/// Median of `xs` (mean of the middle pair for an even count); `0.0`
/// for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of a log-linear histogram, interpolated linearly
/// inside the bucket that holds it.
///
/// The histogram keeps 4 linear buckets per power of two (exact below
/// 8), so a bucket spans 1/8 to 1/4 of its values' magnitude. Treating
/// samples as spread evenly over the bucket's integer range turns the
/// bucket-upper-bound step function into a continuous estimate whose
/// error is bounded by that bucket width.
pub fn hist_quantile(h: &Histogram, q: f64) -> f64 {
    if h.count() == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * h.count() as f64).max(f64::MIN_POSITIVE);
    let mut seen = 0u64;
    for (i, n) in h.nonzero_buckets() {
        if (seen + n) as f64 >= rank {
            let lo = if i == 0 {
                0.0
            } else {
                (Histogram::bucket_upper_bound(i - 1) + 1) as f64
            };
            let hi = Histogram::bucket_upper_bound(i) as f64 + 1.0;
            let frac = (rank - seen as f64) / n as f64;
            return (lo + (hi - lo) * frac).min(h.max() as f64 + 1.0);
        }
        seen += n;
    }
    h.max() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates_inside_the_bucket() {
        let mut h = Histogram::new();
        // 100 samples of 16..=19: one bucket [16, 20).
        for v in 0..100 {
            h.record(16 + v % 4);
        }
        let p50 = hist_quantile(&h, 0.5);
        assert!((p50 - 18.0).abs() < 1e-9, "{p50}");
        assert!(hist_quantile(&h, 1.0) <= 20.0);
        // Exact buckets below 8.
        let mut e = Histogram::new();
        e.record_n(5, 10);
        let q = hist_quantile(&e, 0.5);
        assert!((5.0..6.0).contains(&q), "{q}");
    }
}
