//! Document-based partitioning — the alternative the paper's footnote 1
//! sets aside.
//!
//! "Search index partitioning can be either keyword-based or
//! document-based. … In document-based partitioning, each node hosts the
//! inverted indices (of all keywords) for some documents." Multi-keyword
//! queries then need no inter-index communication at all: every node
//! intersects locally and ships only its (small) partial result list to a
//! coordinator. The trade-off is that *every* node works on *every* query.
//!
//! This module implements that scheme so the keyword-partitioned placement
//! strategies can be compared against it (see
//! `examples/partitioning_comparison.rs`).

use crate::index::InvertedIndex;
use crate::stopwords::StopwordList;
use cca_hash::PageId;
use cca_trace::{Corpus, Query, QueryLog, Vocabulary};

/// A document-partitioned deployment: one local inverted index per node.
#[derive(Debug, Clone)]
pub struct DocPartitionedCluster {
    shards: Vec<InvertedIndex>,
}

/// Replay statistics for a document-partitioned deployment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DocPartitionStats {
    /// Bytes of partial results shipped to coordinators.
    pub total_bytes: u64,
    /// Queries executed.
    pub num_queries: u64,
    /// Total per-node query executions (every node sees every query).
    pub node_executions: u64,
}

impl DocPartitionedCluster {
    /// Partitions `corpus` over `num_nodes` nodes by hashing each
    /// document's page id (the standard scheme), building one local index
    /// per node.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero.
    #[must_use]
    pub fn build(
        corpus: &Corpus,
        vocabulary: &Vocabulary,
        stopwords: &StopwordList,
        num_nodes: usize,
    ) -> Self {
        assert!(num_nodes > 0, "cluster needs at least one node");
        // Split the corpus by page-id hash and index each shard.
        let mut shards_docs: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
        for (d, doc) in corpus.documents.iter().enumerate() {
            let node = (PageId::from_url(&doc.url).0 % num_nodes as u64) as usize;
            shards_docs[node].push(d);
        }
        let shards = shards_docs
            .into_iter()
            .map(|docs| {
                let shard_corpus = Corpus {
                    documents: docs
                        .into_iter()
                        .map(|d| corpus.documents[d].clone())
                        .collect(),
                };
                InvertedIndex::build(&shard_corpus, vocabulary, stopwords)
            })
            .collect();
        DocPartitionedCluster { shards }
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.shards.len()
    }

    /// Per-node index storage in bytes.
    #[must_use]
    pub fn shard_bytes(&self) -> Vec<u64> {
        self.shards.iter().map(InvertedIndex::total_bytes).collect()
    }

    /// Executes one query: every node intersects locally; every non-empty
    /// partial result outside the coordinator (the node with the largest
    /// partial result, which aggregates) is shipped at 8 bytes per page.
    /// Returns `(merged results, bytes shipped)`.
    #[must_use]
    pub fn execute(&self, query: &Query) -> (Vec<PageId>, u64) {
        let partials: Vec<Vec<PageId>> = self
            .shards
            .iter()
            .map(|s| s.intersect_keywords(&query.words))
            .collect();
        let coordinator = partials
            .iter()
            .enumerate()
            .max_by_key(|(k, p)| (p.len(), std::cmp::Reverse(*k)))
            .map_or(0, |(k, _)| k);
        let mut bytes = 0u64;
        let mut merged: Vec<PageId> = Vec::new();
        for (k, partial) in partials.into_iter().enumerate() {
            if k != coordinator {
                bytes += (partial.len() * PageId::WIRE_SIZE) as u64;
            }
            merged.extend(partial);
        }
        merged.sort_unstable();
        (merged, bytes)
    }

    /// Replays a query log.
    #[must_use]
    pub fn replay(&self, log: &QueryLog) -> DocPartitionStats {
        let mut stats = DocPartitionStats::default();
        for q in log.iter() {
            let (_, bytes) = self.execute(q);
            stats.total_bytes += bytes;
            stats.num_queries += 1;
            stats.node_executions += self.shards.len() as u64;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_rand::rngs::StdRng;
    use cca_rand::SeedableRng;
    use cca_trace::TraceConfig;

    fn fixture() -> (Corpus, Vocabulary, QueryLog) {
        let cfg = TraceConfig::tiny();
        let mut rng = StdRng::seed_from_u64(3);
        let vocab = Vocabulary::generate(&cfg, &mut rng);
        let corpus = Corpus::generate(&cfg, &vocab, &mut rng);
        let model = cca_trace::QueryModel::generate(&cfg, &vocab, &mut rng);
        let log = model.sample_log(400, &mut rng);
        (corpus, vocab, log)
    }

    #[test]
    fn shards_cover_the_whole_corpus() {
        let (corpus, vocab, _) = fixture();
        let dp = DocPartitionedCluster::build(&corpus, &vocab, &StopwordList::smart(), 4);
        assert_eq!(dp.num_nodes(), 4);
        let global = InvertedIndex::build(&corpus, &vocab, &StopwordList::smart());
        let shard_total: u64 = dp.shard_bytes().iter().sum();
        assert_eq!(shard_total, global.total_bytes());
    }

    #[test]
    fn results_match_global_index() {
        let (corpus, vocab, log) = fixture();
        let dp = DocPartitionedCluster::build(&corpus, &vocab, &StopwordList::smart(), 3);
        let global = InvertedIndex::build(&corpus, &vocab, &StopwordList::smart());
        for q in log.iter().take(100) {
            let (merged, _) = dp.execute(q);
            assert_eq!(merged, global.intersect_keywords(&q.words), "query {q:?}");
        }
    }

    #[test]
    fn single_node_ships_nothing() {
        let (corpus, vocab, log) = fixture();
        let dp = DocPartitionedCluster::build(&corpus, &vocab, &StopwordList::smart(), 1);
        let stats = dp.replay(&log);
        assert_eq!(stats.total_bytes, 0);
        assert_eq!(stats.node_executions, stats.num_queries);
    }

    #[test]
    fn bytes_bounded_by_result_sizes() {
        let (corpus, vocab, log) = fixture();
        let dp = DocPartitionedCluster::build(&corpus, &vocab, &StopwordList::smart(), 5);
        let global = InvertedIndex::build(&corpus, &vocab, &StopwordList::smart());
        for q in log.iter().take(100) {
            let (merged, bytes) = dp.execute(q);
            // Shipped bytes can never exceed the total result volume.
            assert!(bytes <= (merged.len() * 8) as u64);
            let _ = &global;
        }
    }
}
