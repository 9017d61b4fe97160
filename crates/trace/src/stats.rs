//! Trace statistics: pair correlations and the skew/stability analyses
//! behind the paper's Figure 2.

use crate::query::QueryLog;
use crate::words::WordId;
use std::collections::HashMap;

/// An unordered keyword pair, stored with the smaller id first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairKey(pub WordId, pub WordId);

impl PairKey {
    /// Normalises `(a, b)` so the smaller id comes first.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` — correlation of an object with itself is
    /// meaningless in the CCA formulation.
    #[must_use]
    pub fn new(a: WordId, b: WordId) -> Self {
        assert_ne!(a, b, "a pair must consist of two distinct objects");
        if a < b {
            PairKey(a, b)
        } else {
            PairKey(b, a)
        }
    }
}

/// Empirical pair-correlation statistics of a query log.
///
/// The correlation `r(i,j)` is "the probability for them to be requested
/// together in any given operation" (paper §1): co-occurrence count divided
/// by the number of queries.
#[derive(Debug, Clone)]
pub struct PairStats {
    counts: HashMap<PairKey, u64>,
    word_counts: HashMap<WordId, u64>,
    num_queries: u64,
}

impl PairStats {
    /// Counts **all** unordered keyword pairs within each query. This is
    /// the plain definition used for the skew/stability analysis (Fig 2).
    ///
    /// ```
    /// use cca_trace::{PairKey, PairStats, Query, QueryLog, WordId};
    /// let log = QueryLog {
    ///     queries: vec![
    ///         Query { words: vec![WordId(1), WordId(2)] },
    ///         Query { words: vec![WordId(1), WordId(2), WordId(3)] },
    ///     ],
    ///     universe: 10,
    /// };
    /// let stats = PairStats::from_log(&log);
    /// assert_eq!(stats.correlation(PairKey::new(WordId(1), WordId(2))), 1.0);
    /// assert_eq!(stats.correlation(PairKey::new(WordId(2), WordId(3))), 0.5);
    /// ```
    #[must_use]
    pub fn from_log(log: &QueryLog) -> Self {
        Self::from_log_with(log, |words| {
            let mut pairs = Vec::new();
            for i in 0..words.len() {
                for j in i + 1..words.len() {
                    pairs.push(PairKey::new(words[i], words[j]));
                }
            }
            pairs
        })
    }

    /// Counts only the pair of the **two smallest** objects in each query,
    /// per the paper's §3.2 adjustment for intersection-like multi-object
    /// operations ("we adjust our definition of object pair correlation to
    /// be the probability that they are the two smallest objects requested
    /// in any given operation"). `size_of` supplies object sizes; ties are
    /// broken by word id for determinism.
    #[must_use]
    pub fn from_log_two_smallest(log: &QueryLog, size_of: impl Fn(WordId) -> u64) -> Self {
        Self::from_log_with(log, |words| {
            if words.len() < 2 {
                return Vec::new();
            }
            let mut sorted: Vec<WordId> = words.to_vec();
            sorted.sort_unstable_by_key(|&w| (size_of(w), w));
            vec![PairKey::new(sorted[0], sorted[1])]
        })
    }

    /// Counts, for each query, one pair per non-largest object against the
    /// **largest** object — the paper's §3.2 approximation for union-like
    /// operations: "we transfer all objects to the node at which the
    /// largest object is located", so the operation decomposes into
    /// two-object transfers `(largest, other)`. Ties are broken by word id
    /// for determinism.
    #[must_use]
    pub fn from_log_largest_rest(log: &QueryLog, size_of: impl Fn(WordId) -> u64) -> Self {
        Self::from_log_with(log, |words| {
            if words.len() < 2 {
                return Vec::new();
            }
            let &largest = words
                .iter()
                .max_by_key(|&&w| (size_of(w), w))
                .expect("non-empty");
            words
                .iter()
                .filter(|&&w| w != largest)
                .map(|&w| PairKey::new(largest, w))
                .collect()
        })
    }

    /// Generic constructor: `pairs_of` maps each query's keywords to the
    /// pairs that should be counted for it.
    #[must_use]
    pub fn from_log_with(log: &QueryLog, pairs_of: impl Fn(&[WordId]) -> Vec<PairKey>) -> Self {
        let mut counts: HashMap<PairKey, u64> = HashMap::new();
        let mut word_counts: HashMap<WordId, u64> = HashMap::new();
        for q in log.iter() {
            for &w in &q.words {
                *word_counts.entry(w).or_default() += 1;
            }
            for p in pairs_of(&q.words) {
                *counts.entry(p).or_default() += 1;
            }
        }
        PairStats {
            counts,
            word_counts,
            num_queries: log.len() as u64,
        }
    }

    /// Number of queries the statistics were computed from.
    #[must_use]
    pub fn num_queries(&self) -> u64 {
        self.num_queries
    }

    /// Number of distinct pairs with non-zero correlation.
    #[must_use]
    pub fn num_pairs(&self) -> usize {
        self.counts.len()
    }

    /// Empirical correlation of a pair (0 if never co-requested).
    #[must_use]
    pub fn correlation(&self, pair: PairKey) -> f64 {
        if self.num_queries == 0 {
            return 0.0;
        }
        *self.counts.get(&pair).unwrap_or(&0) as f64 / self.num_queries as f64
    }

    /// Empirical request frequency of a single keyword.
    #[must_use]
    pub fn word_frequency(&self, w: WordId) -> f64 {
        if self.num_queries == 0 {
            return 0.0;
        }
        *self.word_counts.get(&w).unwrap_or(&0) as f64 / self.num_queries as f64
    }

    /// Iterator over `(pair, correlation)` for all observed pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PairKey, f64)> + '_ {
        let n = self.num_queries.max(1) as f64;
        self.counts.iter().map(move |(&p, &c)| (p, c as f64 / n))
    }

    /// The `k` most correlated pairs, descending; ties broken by pair id
    /// for determinism.
    #[must_use]
    pub fn top_pairs(&self, k: usize) -> Vec<(PairKey, f64)> {
        let mut all: Vec<(PairKey, u64)> = self.counts.iter().map(|(&p, &c)| (p, c)).collect();
        all.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        let n = self.num_queries.max(1) as f64;
        all.into_iter().map(|(p, c)| (p, c as f64 / n)).collect()
    }

    /// Fig 2B stability metric: among this log's `top_k` most correlated
    /// pairs, the fraction whose correlation in `other` is more than twice
    /// or less than half its correlation here. Pairs absent from `other`
    /// count as changed.
    #[must_use]
    pub fn fraction_changed_beyond_2x(&self, other: &PairStats, top_k: usize) -> f64 {
        let top = self.top_pairs(top_k);
        if top.is_empty() {
            return 0.0;
        }
        let changed = top
            .iter()
            .filter(|&&(p, r)| {
                let r2 = other.correlation(p);
                r2 > 2.0 * r || r2 < 0.5 * r
            })
            .count();
        changed as f64 / top.len() as f64
    }

    /// Fig 2A skew metric: ratio of the most correlated pair to the
    /// `rank`-th most correlated pair (1-based). Returns `None` when fewer
    /// than `rank` pairs exist.
    #[must_use]
    pub fn skew_ratio(&self, rank: usize) -> Option<f64> {
        let top = self.top_pairs(rank);
        if top.len() < rank || rank == 0 {
            return None;
        }
        let last = top[rank - 1].1;
        (last > 0.0).then(|| top[0].1 / last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Query, QueryLog};

    fn w(i: u32) -> WordId {
        WordId(i)
    }

    fn log_from(queries: &[&[u32]]) -> QueryLog {
        QueryLog {
            queries: queries
                .iter()
                .map(|ws| Query {
                    words: ws.iter().map(|&i| w(i)).collect(),
                })
                .collect(),
            universe: 100,
        }
    }

    #[test]
    fn pairkey_normalises_order() {
        assert_eq!(PairKey::new(w(3), w(1)), PairKey::new(w(1), w(3)));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn pairkey_rejects_self_pair() {
        let _ = PairKey::new(w(1), w(1));
    }

    #[test]
    fn correlations_count_cooccurrence() {
        let log = log_from(&[&[1, 2], &[1, 2, 3], &[4]]);
        let s = PairStats::from_log(&log);
        assert_eq!(s.num_queries(), 3);
        assert!((s.correlation(PairKey::new(w(1), w(2))) - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.correlation(PairKey::new(w(1), w(3))) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.correlation(PairKey::new(w(1), w(4))), 0.0);
        assert!((s.word_frequency(w(1)) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn two_smallest_adjustment() {
        // Sizes: word 1 -> 10, word 2 -> 5, word 3 -> 1.
        let size = |x: WordId| match x.0 {
            1 => 10,
            2 => 5,
            _ => 1,
        };
        let log = log_from(&[&[1, 2, 3]]);
        let s = PairStats::from_log_two_smallest(&log, size);
        // Only the (2,3) pair — the two smallest — is counted.
        assert_eq!(s.correlation(PairKey::new(w(2), w(3))), 1.0);
        assert_eq!(s.correlation(PairKey::new(w(1), w(2))), 0.0);
        assert_eq!(s.correlation(PairKey::new(w(1), w(3))), 0.0);
    }

    #[test]
    fn largest_rest_adjustment() {
        // Sizes: word 1 -> 10, word 2 -> 5, word 3 -> 1.
        let size = |x: WordId| match x.0 {
            1 => 10,
            2 => 5,
            _ => 1,
        };
        let log = log_from(&[&[1, 2, 3], &[2, 3]]);
        let s = PairStats::from_log_largest_rest(&log, size);
        // Query 1: largest is word 1 -> pairs (1,2) and (1,3).
        assert_eq!(s.correlation(PairKey::new(w(1), w(2))), 0.5);
        assert_eq!(s.correlation(PairKey::new(w(1), w(3))), 0.5);
        // Query 2: largest is word 2 -> pair (2,3).
        assert_eq!(s.correlation(PairKey::new(w(2), w(3))), 0.5);
        assert_eq!(s.num_pairs(), 3);
    }

    #[test]
    fn single_word_queries_produce_no_pairs() {
        let log = log_from(&[&[1], &[2]]);
        let s = PairStats::from_log(&log);
        assert_eq!(s.num_pairs(), 0);
        let s2 = PairStats::from_log_two_smallest(&log, |_| 1);
        assert_eq!(s2.num_pairs(), 0);
    }

    #[test]
    fn top_pairs_are_sorted_descending() {
        let log = log_from(&[&[1, 2], &[1, 2], &[1, 2], &[3, 4], &[3, 4], &[5, 6]]);
        let s = PairStats::from_log(&log);
        let top = s.top_pairs(3);
        assert_eq!(top[0].0, PairKey::new(w(1), w(2)));
        assert_eq!(top[1].0, PairKey::new(w(3), w(4)));
        assert_eq!(top[2].0, PairKey::new(w(5), w(6)));
        assert!(top[0].1 >= top[1].1 && top[1].1 >= top[2].1);
    }

    #[test]
    fn skew_ratio_on_constructed_log() {
        let log = log_from(&[&[1, 2], &[1, 2], &[1, 2], &[1, 2], &[3, 4]]);
        let s = PairStats::from_log(&log);
        assert_eq!(s.skew_ratio(2), Some(4.0));
        assert_eq!(s.skew_ratio(3), None); // only two pairs exist
    }

    #[test]
    fn stability_detects_changes() {
        let jan = log_from(&[&[1, 2], &[1, 2], &[3, 4], &[5, 6]]);
        // (1,2) halves, (3,4) stays, (5,6) disappears.
        let feb = log_from(&[&[1, 2], &[3, 4], &[7, 8], &[9, 10]]);
        let s_jan = PairStats::from_log(&jan);
        let s_feb = PairStats::from_log(&feb);
        // top 3 pairs of jan: (1,2) r=0.5 -> 0.25 (exactly half: not beyond);
        // (3,4) r=0.25 -> 0.25 (unchanged); (5,6) r=0.25 -> 0 (changed).
        let frac = s_jan.fraction_changed_beyond_2x(&s_feb, 3);
        assert!((frac - 1.0 / 3.0).abs() < 1e-12, "frac {frac}");
    }
}
