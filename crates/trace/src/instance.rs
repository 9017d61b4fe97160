//! Million-object synthetic placement instances.
//!
//! The paper's workloads top out at the scale its traces cover; the
//! sharded CSR (`cca-core`'s `ShardedGraph`) targets instances far past
//! that — 10⁶ objects and 10⁷ correlated pairs. This module generates
//! such instances directly as raw object/pair tables (bypassing the
//! query-log machinery, which would need billions of queries to induce
//! 10⁷ pairs), with the same distributional shape the trace generator
//! produces:
//!
//! * Zipf-skewed pair endpoints, so a heavy head of objects carries most
//!   correlations (paper Fig 2A's skew);
//! * Zipf-heavy-tailed object sizes (paper Fig 5's index sizes);
//! * **dyadic** edge weights — correlations are exact multiples of ⅛ and
//!   communication costs are small integers — so the correlation graph's
//!   snap of every weight to its quantum moves none of them.
//!
//! Everything is a pure function of the seed.

use crate::zipf::Zipf;
use cca_rand::rngs::StdRng;
use cca_rand::{Rng, SeedableRng};

/// One correlated pair of a raw instance, in generator id space
/// (endpoints are `u32` object indices with `a < b`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawPair {
    /// Smaller endpoint.
    pub a: u32,
    /// Larger endpoint.
    pub b: u32,
    /// Correlation `r(a,b)` — an exact multiple of ⅛ in `(0, 1]`.
    pub correlation: f64,
    /// Communication overhead `w(a,b)` — a small integral cost.
    pub comm_cost: f64,
}

/// A raw synthetic placement instance: object sizes plus correlated
/// pairs, ready to feed `CorrelationGraph`/`ShardedGraph` builds (or a
/// problem builder at smaller scales).
#[derive(Debug, Clone)]
pub struct ZipfInstance {
    /// Size (bytes) of each object; index is the object id.
    pub sizes: Vec<u64>,
    /// The correlated pairs, in draw order, duplicate-free, `a < b`.
    pub pairs: Vec<RawPair>,
}

impl ZipfInstance {
    /// Resident bytes of the raw instance tables — the generator-side
    /// input to the memory accounting in `BENCH_shard.json`.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sizes.len() * size_of::<u64>() + self.pairs.len() * size_of::<RawPair>()
    }

    /// Number of objects.
    #[must_use]
    pub fn num_objects(&self) -> usize {
        self.sizes.len()
    }
}

/// Generates a `num_objects`-object instance with exactly `num_pairs`
/// distinct correlated pairs whose endpoints follow a Zipf law with
/// exponent `skew`. Deterministic per `seed`; duplicate endpoint draws
/// are rejected (first draw wins), so the pair list order is the draw
/// order of each pair's first appearance.
///
/// # Panics
///
/// Panics if `num_objects < 2` or `num_pairs` exceeds the number of
/// distinct pairs `num_objects · (num_objects − 1) / 2`.
#[must_use]
pub fn zipf_instance(num_objects: usize, num_pairs: usize, skew: f64, seed: u64) -> ZipfInstance {
    assert!(num_objects >= 2, "an instance needs at least two objects");
    assert!(
        num_pairs <= num_objects * (num_objects - 1) / 2,
        "cannot draw {num_pairs} distinct pairs over {num_objects} objects"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    // Heavy-tailed sizes: 1..=4096 "blocks", Zipf-1 ranked, like the
    // corpus generator's document index sizes.
    let size_law = Zipf::new(4096, 1.0);
    let sizes: Vec<u64> = (0..num_objects)
        .map(|_| 1 + size_law.sample(&mut rng) as u64)
        .collect();
    let endpoint_law = Zipf::new(num_objects, skew);
    let mut seen = std::collections::HashSet::with_capacity(num_pairs * 2);
    let mut pairs = Vec::with_capacity(num_pairs);
    while pairs.len() < num_pairs {
        let a = endpoint_law.sample(&mut rng) as u32;
        let b = endpoint_law.sample(&mut rng) as u32;
        if a == b {
            continue;
        }
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        // Draw the weight before the dedup check so the rng stream per
        // accepted pair does not depend on HashSet internals.
        let eighths = rng.random_range(1u32..=8);
        if seen.insert(u64::from(a) << 32 | u64::from(b)) {
            pairs.push(RawPair {
                a,
                b,
                correlation: f64::from(eighths) / 8.0,
                comm_cost: 16.0,
            });
        }
    }
    ZipfInstance { sizes, pairs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_is_deterministic_per_seed() {
        let a = zipf_instance(500, 2_000, 0.8, 11);
        let b = zipf_instance(500, 2_000, 0.8, 11);
        assert_eq!(a.sizes, b.sizes);
        assert_eq!(a.pairs, b.pairs);
        let c = zipf_instance(500, 2_000, 0.8, 12);
        assert_ne!(a.pairs, c.pairs);
    }

    #[test]
    fn pairs_are_distinct_normalized_and_dyadic() {
        let inst = zipf_instance(300, 1_500, 0.9, 5);
        assert_eq!(inst.pairs.len(), 1_500);
        assert_eq!(inst.sizes.len(), 300);
        let mut keys = std::collections::HashSet::new();
        for p in &inst.pairs {
            assert!(p.a < p.b, "endpoints must be normalized");
            assert!((p.b as usize) < 300, "endpoint out of range");
            assert!(keys.insert((p.a, p.b)), "duplicate pair ({}, {})", p.a, p.b);
            // Dyadic weights: correlation is an exact multiple of 1/8.
            assert_eq!((p.correlation * 8.0).fract(), 0.0);
            assert!(p.correlation > 0.0 && p.correlation <= 1.0);
            assert_eq!(p.comm_cost, 16.0);
        }
        assert!(inst.sizes.iter().all(|&s| s >= 1));
        assert!(inst.memory_bytes() >= 300 * 8 + 1_500 * std::mem::size_of::<RawPair>());
    }

    #[test]
    fn dense_request_fills_the_whole_pair_space() {
        // num_pairs == C(n, 2): the rejection loop must terminate by
        // enumerating every pair.
        let inst = zipf_instance(12, 66, 0.5, 3);
        assert_eq!(inst.pairs.len(), 66);
    }

    #[test]
    #[should_panic(expected = "distinct pairs")]
    fn oversized_pair_request_panics() {
        let _ = zipf_instance(4, 7, 0.5, 1);
    }
}
