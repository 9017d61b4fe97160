//! Order statistics for in-run samples and the dyadic latency histogram.

use cca::algo::LatencyHistogram;

/// The `q`-quantile of `samples` by linear interpolation between the two
/// nearest ranks (`q = 0.5` is the usual median). `None` when empty.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples`; `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// A latency percentile read from a dyadic histogram, in microseconds:
/// the upper bound of the bucket holding rank `ceil(q · total)`, which is
/// what the serving reports persist. `None` for an empty histogram.
#[must_use]
pub fn histogram_percentile_us(hist: &LatencyHistogram, q: f64) -> Option<f64> {
    (hist.total() > 0).then(|| hist.quantile_upper_bound(q) as f64 / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), Some(0.0));
        assert_eq!(quantile(&xs, 1.0), Some(10.0));
        assert_eq!(quantile(&xs, 0.25), Some(2.5));
        assert_eq!(quantile(&xs, 0.9), Some(9.0));
        // Out-of-range q clamps instead of indexing out of bounds.
        assert_eq!(quantile(&xs, 1.5), Some(10.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.75), Some(1.75));
    }

    #[test]
    fn histogram_percentile_is_a_bucket_upper_bound() {
        let mut h = LatencyHistogram::new();
        // 990 fast samples in [512, 1024) ns and 10 slow ones in
        // [2^20, 2^21) ns: p50 and p99 sit in the fast bucket, p99.9 in
        // the slow one.
        for _ in 0..990 {
            h.record(700);
        }
        for _ in 0..10 {
            h.record(1_500_000);
        }
        assert_eq!(histogram_percentile_us(&h, 0.5), Some(1023.0 / 1e3));
        assert_eq!(histogram_percentile_us(&h, 0.99), Some(1023.0 / 1e3));
        let slow = ((1u64 << 21) - 1) as f64 / 1e3;
        assert_eq!(histogram_percentile_us(&h, 0.999), Some(slow));
        assert_eq!(histogram_percentile_us(&h, 1.0), Some(slow));
        assert_eq!(histogram_percentile_us(&LatencyHistogram::new(), 0.5), None);
    }

    #[test]
    fn p999_of_ten_thousand_samples_is_the_bucket_of_rank_9990() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i);
        }
        // Rank 9990 (value 9990) lies in [2^13, 2^14).
        assert_eq!(histogram_percentile_us(&h, 0.999), Some(16383.0 / 1e3));
        // Rank 5000 lies in [2^12, 2^13).
        assert_eq!(histogram_percentile_us(&h, 0.5), Some(8191.0 / 1e3));
    }
}
