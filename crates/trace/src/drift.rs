//! Temporal drift: deriving the "February" query model from "January".
//!
//! The paper's Fig 2B shows keyword-pair correlations are highly stable
//! between month-long periods: only 1.2% of the top pairs change by more
//! than 2× or less than ½. We model a month of drift by multiplying each
//! phrase's popularity weight by a log-normal factor `exp(ε)`,
//! `ε ~ N(0, σ²)`. With `σ = 0.276`, `P(|ε| > ln 2) ≈ 1.2%`, matching the
//! paper's statistic before sampling noise.

use crate::query::QueryModel;
use cca_rand::Rng;

/// Parameters of the drift model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Standard deviation of the log-normal popularity perturbation.
    pub sigma: f64,
}

impl DriftConfig {
    /// Calibrated so ≈1.2% of pairs cross the 2×/½ threshold, per Fig 2B.
    ///
    /// `P(|N(0,σ)| > ln 2) = 0.012` requires `ln 2 / σ ≈ 2.51`, i.e.
    /// `σ ≈ 0.276`.
    #[must_use]
    pub fn paper_calibrated() -> Self {
        DriftConfig { sigma: 0.276 }
    }
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig::paper_calibrated()
    }
}

/// Draws a standard-normal variate via the Box–Muller transform (kept local
/// to avoid a distribution-crate dependency).
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.random::<f64>();
        if u1 > 1e-300 {
            let u2: f64 = rng.random::<f64>();
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// `2⁵¹²`: the drifted weights' largest entry is kept within
/// `[2⁻⁵¹², 2⁵¹²]` by rescaling with this exact power of two.
const WEIGHT_BOUND: f64 = f64::from_bits((1023 + 512) << 52);

impl QueryModel {
    /// Returns a drifted copy of this model: phrase popularities are
    /// perturbed log-normally with standard deviation `config.sigma`;
    /// the phrase set, vocabulary and length distribution are unchanged.
    ///
    /// Repeated drift is a random walk in log space, so after enough
    /// steps a weight would overflow to infinity (or all would underflow).
    /// When the largest weight leaves `[2⁻⁵¹², 2⁵¹²]`, every weight is
    /// multiplied by `2⁻⁵¹²` (or `2⁵¹²`): an exact power of two, which
    /// changes no cumulative sum and so no sampled query.
    #[must_use]
    pub fn drifted<R: Rng + ?Sized>(&self, config: DriftConfig, rng: &mut R) -> QueryModel {
        assert!(
            config.sigma.is_finite() && config.sigma >= 0.0,
            "sigma must be finite and non-negative"
        );
        let mut out = self.clone();
        for w in &mut out.phrase_weights {
            *w *= (config.sigma * standard_normal(rng)).exp();
        }
        let largest = out.phrase_weights.iter().fold(0.0f64, |m, &w| m.max(w));
        let scale = if largest > WEIGHT_BOUND {
            1.0 / WEIGHT_BOUND
        } else if largest > 0.0 && largest < 1.0 / WEIGHT_BOUND {
            WEIGHT_BOUND
        } else {
            1.0
        };
        if scale != 1.0 {
            out.phrase_weights.iter_mut().for_each(|w| *w *= scale);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TraceConfig;
    use crate::words::Vocabulary;
    use cca_rand::rngs::StdRng;
    use cca_rand::SeedableRng;

    #[test]
    fn zero_sigma_is_identity() {
        let cfg = TraceConfig::tiny();
        let mut rng = StdRng::seed_from_u64(3);
        let vocab = Vocabulary::generate(&cfg, &mut rng);
        let model = QueryModel::generate(&cfg, &vocab, &mut rng);
        let drifted = model.drifted(DriftConfig { sigma: 0.0 }, &mut rng);
        assert_eq!(model.phrase_weights, drifted.phrase_weights);
        assert_eq!(model.phrases, drifted.phrases);
    }

    #[test]
    fn drift_perturbs_weights_multiplicatively() {
        let cfg = TraceConfig::tiny();
        let mut rng = StdRng::seed_from_u64(4);
        let vocab = Vocabulary::generate(&cfg, &mut rng);
        let model = QueryModel::generate(&cfg, &vocab, &mut rng);
        let drifted = model.drifted(DriftConfig::paper_calibrated(), &mut rng);
        assert_eq!(model.phrases, drifted.phrases);
        let mut changed = 0;
        for (a, b) in model.phrase_weights.iter().zip(&drifted.phrase_weights) {
            assert!(*b > 0.0);
            if (a - b).abs() > 1e-15 {
                changed += 1;
            }
        }
        assert!(changed > model.phrase_weights.len() / 2);
    }

    /// Weights near the top of the `f64` range stay finite through a
    /// drift step, rescaled by an exact power of two, and sample exactly
    /// the queries the unscaled model samples.
    #[test]
    fn drift_keeps_weights_finite_without_changing_draws() {
        let cfg = TraceConfig::tiny();
        let mut rng = StdRng::seed_from_u64(8);
        let vocab = Vocabulary::generate(&cfg, &mut rng);
        let model = QueryModel::generate(&cfg, &vocab, &mut rng);
        let mut huge = model.clone();
        let up = f64::from_bits((1023 + 1020) << 52); // 2^1020
        huge.phrase_weights.iter_mut().for_each(|w| *w *= up);
        let sigma = DriftConfig { sigma: 1.0 };
        let plain = model.drifted(sigma, &mut StdRng::seed_from_u64(9));
        let drifted = huge.drifted(sigma, &mut StdRng::seed_from_u64(9));
        let largest = drifted.phrase_weights.iter().fold(0.0f64, |m, &w| m.max(w));
        assert!(
            largest.is_finite() && largest <= WEIGHT_BOUND,
            "largest {largest}"
        );
        // One exact rescale by 2^-512: 2^1020 · 2^-512 = 2^508.
        let kept = f64::from_bits((1023 + 508) << 52);
        for (a, b) in plain.phrase_weights.iter().zip(&drifted.phrase_weights) {
            assert_eq!((a * kept).to_bits(), b.to_bits());
        }
        let a = plain.sample_log(200, &mut StdRng::seed_from_u64(10));
        let b = drifted.sample_log(200, &mut StdRng::seed_from_u64(10));
        assert!(a.iter().eq(b.iter()), "the rescale changed a draw");
        // A long walk from there: without the rescale a weight leaves
        // the f64 range within a few dozen steps.
        let mut walk = huge;
        let mut rng = StdRng::seed_from_u64(11);
        for step in 0..256 {
            walk = walk.drifted(sigma, &mut rng);
            let finite = walk.phrase_weights.iter().all(|w| w.is_finite());
            assert!(finite, "a weight overflowed at step {step}");
        }
        assert_eq!(walk.sample_log(50, &mut rng).len(), 50);
        // And from the bottom of the range: tiny weights are scaled up.
        let mut tiny = model;
        let down = f64::from_bits((1023 - 600) << 52); // 2^-600
        tiny.phrase_weights.iter_mut().for_each(|w| *w *= down);
        let lifted = tiny.drifted(DriftConfig { sigma: 0.0 }, &mut rng);
        let largest = lifted.phrase_weights.iter().fold(0.0f64, |m, &w| m.max(w));
        assert!(
            (1.0 / WEIGHT_BOUND..=WEIGHT_BOUND).contains(&largest),
            "largest {largest}"
        );
    }

    #[test]
    fn calibrated_sigma_crosses_threshold_rarely() {
        // Direct check of the calibration: the perturbation factor exceeds
        // 2× or falls below ½ for roughly 1.2% of draws.
        let mut rng = StdRng::seed_from_u64(5);
        let sigma = DriftConfig::paper_calibrated().sigma;
        let n = 200_000;
        let crossed = (0..n)
            .filter(|_| (sigma * standard_normal(&mut rng)).abs() > std::f64::consts::LN_2)
            .count();
        let frac = crossed as f64 / n as f64;
        assert!(
            (0.008..0.017).contains(&frac),
            "threshold-crossing fraction {frac}, expected ≈0.012"
        );
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }
}
