//! Workload summaries: the descriptive statistics an operator inspects
//! before trusting a trace enough to optimize against it.

use crate::fit::{fit_zipf, ZipfFit};
use crate::query::QueryLog;
use crate::stats::PairStats;

/// Descriptive statistics of a query log.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSummary {
    /// Number of queries.
    pub num_queries: usize,
    /// Mean keywords per query.
    pub mean_query_length: f64,
    /// Histogram of query lengths (index 0 = length 1).
    pub length_histogram: Vec<usize>,
    /// Distinct keywords observed in the log.
    pub distinct_keywords: usize,
    /// Distinct co-requested pairs.
    pub distinct_pairs: usize,
    /// Fraction of queries with two or more keywords (the only ones that
    /// can ever cost communication).
    pub multi_keyword_fraction: f64,
    /// Zipf fit of the top pair-correlation curve, when enough pairs
    /// exist.
    pub pair_skew_fit: Option<ZipfFit>,
    /// Correlation ratio between the most correlated pair and the pair at
    /// `skew_rank` (paper Fig 2A's statistic), when enough pairs exist.
    pub skew_ratio: Option<f64>,
    /// The rank used for `skew_ratio`.
    pub skew_rank: usize,
}

impl WorkloadSummary {
    /// Computes the summary of `log`, using the top `skew_rank` pairs for
    /// the skew statistics (the paper uses 1000).
    ///
    /// # Panics
    ///
    /// Panics if the log is empty.
    #[must_use]
    pub fn of(log: &QueryLog, skew_rank: usize) -> Self {
        assert!(!log.is_empty(), "cannot summarise an empty log");
        let mut length_histogram = Vec::new();
        let mut multi = 0usize;
        let mut keywords = std::collections::HashSet::new();
        for q in log.iter() {
            let len = q.len();
            if length_histogram.len() < len {
                length_histogram.resize(len, 0);
            }
            length_histogram[len - 1] += 1;
            if len >= 2 {
                multi += 1;
            }
            keywords.extend(q.words.iter().copied());
        }
        let stats = PairStats::from_log(log);
        let top: Vec<f64> = stats
            .top_pairs(skew_rank)
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        WorkloadSummary {
            num_queries: log.len(),
            mean_query_length: log.mean_length(),
            length_histogram,
            distinct_keywords: keywords.len(),
            distinct_pairs: stats.num_pairs(),
            multi_keyword_fraction: multi as f64 / log.len() as f64,
            pair_skew_fit: fit_zipf(&top),
            skew_ratio: stats.skew_ratio(skew_rank),
            skew_rank,
        }
    }

    /// Renders the summary as a human-readable multi-line report.
    #[must_use]
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "queries:              {}", self.num_queries);
        let _ = writeln!(
            out,
            "mean query length:    {:.2} keywords",
            self.mean_query_length
        );
        let _ = writeln!(
            out,
            "multi-keyword share:  {:.1}%",
            100.0 * self.multi_keyword_fraction
        );
        let _ = write!(out, "length histogram:     ");
        for (i, &count) in self.length_histogram.iter().enumerate() {
            let _ = write!(out, "{}:{} ", i + 1, count);
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "distinct keywords:    {}", self.distinct_keywords);
        let _ = writeln!(out, "distinct pairs:       {}", self.distinct_pairs);
        if let Some(ratio) = self.skew_ratio {
            let _ = writeln!(out, "pair skew (1/{}):   {ratio:.1}x", self.skew_rank);
        }
        if let Some(fit) = self.pair_skew_fit {
            let _ = writeln!(
                out,
                "pair Zipf fit:        exponent {:.2} (r^2 {:.3})",
                fit.exponent, fit.r_squared
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::words::WordId;
    use crate::{TraceConfig, Workload};

    fn tiny_log() -> QueryLog {
        QueryLog {
            queries: vec![
                Query {
                    words: vec![WordId(1)],
                },
                Query {
                    words: vec![WordId(1), WordId(2)],
                },
                Query {
                    words: vec![WordId(1), WordId(2), WordId(3)],
                },
            ],
            universe: 10,
        }
    }

    #[test]
    fn histogram_and_means() {
        let s = WorkloadSummary::of(&tiny_log(), 10);
        assert_eq!(s.num_queries, 3);
        assert_eq!(s.length_histogram, vec![1, 1, 1]);
        assert!((s.mean_query_length - 2.0).abs() < 1e-12);
        assert!((s.multi_keyword_fraction - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.distinct_keywords, 3);
    }

    #[test]
    fn distinct_pair_count_is_exact() {
        let s = WorkloadSummary::of(&tiny_log(), 10);
        // Pairs: (1,2) from both multi queries, (1,3), (2,3).
        assert_eq!(s.distinct_pairs, 3);
    }

    #[test]
    fn generated_workload_summary_is_consistent() {
        let w = Workload::generate(&TraceConfig::tiny(), 12);
        let s = WorkloadSummary::of(&w.queries, 50);
        assert_eq!(s.num_queries, w.queries.len());
        assert!((s.mean_query_length - w.queries.mean_length()).abs() < 1e-12);
        assert_eq!(s.length_histogram.iter().sum::<usize>(), w.queries.len());
        assert!(s.skew_ratio.is_some());
        assert!(s.pair_skew_fit.is_some());
        assert!(!s.report().is_empty());
    }

    #[test]
    #[should_panic(expected = "empty log")]
    fn empty_log_panics() {
        let log = QueryLog {
            queries: vec![],
            universe: 1,
        };
        let _ = WorkloadSummary::of(&log, 10);
    }
}
