//! Zipf-distributed sampling.

use cca_rand::Rng;

/// A sampler over ranks `0..n` with `P(rank k) ∝ 1/(k+1)^s`.
///
/// Built once (`O(n)`) and sampled by binary search over the cumulative
/// weights (`O(log n)` per draw).
///
/// ```
/// use cca_trace::zipf::Zipf;
/// use cca_rand::SeedableRng;
/// let z = Zipf::new(100, 1.0);
/// let mut rng = cca_rand::rngs::StdRng::seed_from_u64(1);
/// let r = z.sample(&mut rng);
/// assert!(r < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
    exponent: f64,
}

impl Zipf {
    /// Creates a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative or non-finite.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        assert!(
            s.is_finite() && s >= 0.0,
            "exponent must be finite and >= 0"
        );
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cumulative.push(total);
        }
        Zipf {
            cumulative,
            exponent: s,
        }
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Returns `true` if the support is empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// The configured exponent.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Probability of rank `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn probability(&self, k: usize) -> f64 {
        let total = *self.cumulative.last().expect("non-empty");
        let prev = if k == 0 { 0.0 } else { self.cumulative[k - 1] };
        (self.cumulative[k] - prev) / total
    }

    /// Draws one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u = rng.random::<f64>() * total;
        // partition_point returns the first rank whose cumulative weight
        // exceeds u.
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// A prepared sampler over arbitrary non-negative weights with
/// `O(log n)` draws (cumulative table + binary search). Use this instead
/// of [`sample_weighted`] inside sampling loops.
#[derive(Debug, Clone)]
pub struct WeightedSampler {
    cumulative: Vec<f64>,
}

impl WeightedSampler {
    /// Prepares the cumulative table.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// weight, or sums to zero.
    #[must_use]
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "weights must be finite and >= 0");
            total += w;
            cumulative.push(total);
        }
        assert!(total > 0.0, "weights must sum to a positive value");
        WeightedSampler { cumulative }
    }

    /// Number of weights.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Returns `true` if the sampler is empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draws one index with probability proportional to its weight.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u = rng.random::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// Draws a rank from arbitrary non-negative weights (linear scan; intended
/// for short weight vectors such as query-length distributions).
///
/// # Panics
///
/// Panics if `weights` is empty or sums to zero.
pub fn sample_weighted<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must sum to a positive value");
    let mut u = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if u < w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_rand::rngs::StdRng;
    use cca_rand::SeedableRng;

    #[test]
    fn probabilities_sum_to_one() {
        let z = Zipf::new(50, 0.8);
        let sum: f64 = (0..50).map(|k| z.probability(k)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.probability(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn empirical_frequencies_match_theory() {
        let z = Zipf::new(20, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200_000;
        let mut counts = [0usize; 20];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for k in 0..20 {
            let emp = counts[k] as f64 / n as f64;
            let theory = z.probability(k);
            assert!(
                (emp - theory).abs() < 0.01 + 0.1 * theory,
                "rank {k}: empirical {emp}, theory {theory}"
            );
        }
    }

    #[test]
    fn skew_ratio_matches_closed_form() {
        // P(0)/P(999) = 1000^s.
        let z = Zipf::new(1000, 0.75);
        let ratio = z.probability(0) / z.probability(999);
        assert!((ratio - 1000f64.powf(0.75)).abs() < 1e-6);
    }

    #[test]
    fn weighted_sampler_matches_linear_scan_distribution() {
        let weights = [0.5, 0.0, 2.0, 1.5];
        let s = WeightedSampler::new(&weights);
        assert_eq!(s.len(), 4);
        let mut rng = StdRng::seed_from_u64(12);
        let mut hits = [0usize; 4];
        for _ in 0..40_000 {
            hits[s.sample(&mut rng)] += 1;
        }
        assert_eq!(hits[1], 0);
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let emp = hits[i] as f64 / 40_000.0;
            assert!((emp - w / total).abs() < 0.01, "index {i}: {emp}");
        }
    }

    #[test]
    #[should_panic(expected = "sum to a positive value")]
    fn weighted_sampler_rejects_zero_weights() {
        let _ = WeightedSampler::new(&[0.0, 0.0]);
    }

    #[test]
    fn sample_weighted_respects_weights() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut hits = [0usize; 3];
        for _ in 0..30_000 {
            hits[sample_weighted(&[1.0, 0.0, 3.0], &mut rng)] += 1;
        }
        assert_eq!(hits[1], 0);
        let ratio = hits[2] as f64 / hits[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "support must be non-empty")]
    fn empty_support_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    /// Generator-scale regression (million-object instances): the naive
    /// cumulative sum must stay strictly increasing at `n = 10⁶` — the
    /// tail increment `1/n^s` (~2e-7 relative at `s = 0.8`) is far above
    /// `f64` epsilon, so no rank collapses to zero probability and the
    /// `O(log n)` binary search can still resolve every rank.
    #[test]
    fn million_rank_tail_keeps_positive_probability() {
        let n = 1_000_000;
        let z = Zipf::new(n, 0.8);
        assert_eq!(z.len(), n);
        // Strict cumulative growth observed through the public API: the
        // last, smallest-weight ranks keep strictly positive mass.
        for k in [0, 1, n / 2, n - 2, n - 1] {
            assert!(
                z.probability(k) > 0.0,
                "rank {k} lost its probability mass at n = 10^6"
            );
        }
        // The head/tail ratio matches the closed form to float accuracy,
        // so no precision was lost accumulating the million-term sum.
        let ratio = z.probability(0) / z.probability(n - 1);
        let want = (n as f64).powf(0.8);
        assert!(
            (ratio / want - 1.0).abs() < 1e-9,
            "head/tail ratio {ratio} drifted from closed form {want}"
        );
        // Draws stay in range at scale.
        let mut rng = StdRng::seed_from_u64(20_080_617);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < n);
        }
    }

    /// `WeightedSampler` at generator scale: a million heavy-tailed
    /// weights build one strictly increasing cumulative table and every
    /// index — including the last — stays reachable by the binary search.
    #[test]
    fn weighted_sampler_handles_million_weights() {
        let n = 1_000_000;
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / (k + 1) as f64).collect();
        let s = WeightedSampler::new(&weights);
        assert_eq!(s.len(), n);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..10_000 {
            assert!(s.sample(&mut rng) < n);
        }
    }
}
