//! Simulated distributed cluster: nodes, keyword lookup table, storage
//! accounting.

use crate::index::InvertedIndex;
use cca_trace::WordId;

/// A set of `n` simulated nodes with a keyword-location lookup table, as
/// maintained by every node in the paper's correlation-aware deployments
/// (§4.1).
#[derive(Debug, Clone)]
pub struct Cluster {
    num_nodes: usize,
    /// `lookup[word id] = node`, `usize::MAX` for unplaced words. This is
    /// always the **primary** copy, so every single-copy consumer keeps
    /// its exact behaviour when extra replicas exist.
    lookup: Vec<usize>,
    /// Extra replica columns, flattened `[word id * (r-1) + (j-1)] = node`
    /// (`usize::MAX` for unplaced). Empty when `replicas == 1` — the
    /// common case costs nothing.
    extra: Vec<usize>,
    /// Copies per word (`>= 1`).
    replicas: usize,
    /// Bytes of index data stored per node (every copy counted).
    stored: Vec<u64>,
}

impl Cluster {
    /// Creates an empty cluster of `num_nodes` nodes over a `universe` of
    /// word ids.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero.
    #[must_use]
    pub fn new(num_nodes: usize, universe: usize) -> Self {
        assert!(num_nodes > 0, "cluster needs at least one node");
        Cluster {
            num_nodes,
            lookup: vec![usize::MAX; universe],
            extra: Vec::new(),
            replicas: 1,
            stored: vec![0; num_nodes],
        }
    }

    /// Creates a cluster and places every indexed keyword according to
    /// `assignment` (`assignment[word id] = node`; `usize::MAX` entries are
    /// skipped).
    ///
    /// # Panics
    ///
    /// Panics if an assignment targets a node out of range or the
    /// assignment table is smaller than the index universe.
    #[must_use]
    pub fn with_assignment(num_nodes: usize, index: &InvertedIndex, assignment: &[usize]) -> Self {
        assert!(
            assignment.len() >= index.universe(),
            "assignment table smaller than index universe"
        );
        let mut cluster = Cluster::new(num_nodes, index.universe());
        for w in index.keywords() {
            let node = assignment[w.index()];
            if node != usize::MAX {
                cluster.place(w, node, index.size_bytes(w));
            }
        }
        cluster
    }

    /// Places keyword `w` (of `bytes` index size) on `node`, relocating it
    /// if it was already placed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `w` outside the universe.
    pub fn place(&mut self, w: WordId, node: usize, bytes: u64) {
        assert!(node < self.num_nodes, "node {node} out of range");
        let slot = &mut self.lookup[w.index()];
        if *slot != usize::MAX {
            self.stored[*slot] -= bytes;
        }
        *slot = node;
        self.stored[node] += bytes;
    }

    /// Creates a cluster placing `r` copies of every indexed keyword:
    /// `columns[j][word id] = node` for replica `j` (column 0 is the
    /// primary and behaves exactly like [`Cluster::with_assignment`];
    /// `usize::MAX` entries are skipped whole-word). Storage accounting
    /// counts every copy.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty, a column is smaller than the index
    /// universe, or a node is out of range.
    #[must_use]
    pub fn with_replica_assignment(
        num_nodes: usize,
        index: &InvertedIndex,
        columns: &[Vec<usize>],
    ) -> Self {
        assert!(!columns.is_empty(), "need at least the primary column");
        let mut cluster = Cluster::with_assignment(num_nodes, index, &columns[0]);
        cluster.replicas = columns.len();
        if columns.len() == 1 {
            return cluster;
        }
        let extras = columns.len() - 1;
        cluster.extra = vec![usize::MAX; index.universe() * extras];
        for (j, column) in columns[1..].iter().enumerate() {
            assert!(
                column.len() >= index.universe(),
                "replica column smaller than index universe"
            );
            for w in index.keywords() {
                let node = column[w.index()];
                if node == usize::MAX || columns[0][w.index()] == usize::MAX {
                    continue;
                }
                assert!(node < num_nodes, "node {node} out of range");
                cluster.extra[w.index() * extras + j] = node;
                cluster.stored[node] += index.size_bytes(w);
            }
        }
        cluster
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Copies per word (`1` unless built by
    /// [`Cluster::with_replica_assignment`]).
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Node hosting keyword `w`, or `None` if unplaced. With replicas
    /// this is the **primary** copy — single-copy consumers are
    /// unaffected by extra replicas.
    #[must_use]
    pub fn node_of(&self, w: WordId) -> Option<usize> {
        let n = self.lookup[w.index()];
        (n != usize::MAX).then_some(n)
    }

    /// Home nodes of keyword `w` in ascending replica-index order
    /// (primary first), skipping unplaced copies. Replica scans in this
    /// order are the documented tie-break of the read path: "first
    /// colocated replica" always means the lowest replica index.
    pub fn replica_nodes(&self, w: WordId) -> impl Iterator<Item = usize> + '_ {
        let extras = self.replicas.saturating_sub(1);
        let primary = self.lookup[w.index()];
        let rest = if extras == 0 {
            &[][..]
        } else {
            &self.extra[w.index() * extras..(w.index() + 1) * extras]
        };
        std::iter::once(primary)
            .chain(rest.iter().copied())
            .filter(|&n| n != usize::MAX)
    }

    /// `true` when some replica of `w` lives on `node`.
    #[must_use]
    pub fn hosts(&self, w: WordId, node: usize) -> bool {
        self.replica_nodes(w).any(|n| n == node)
    }

    /// Bytes stored on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn stored_bytes(&self, node: usize) -> u64 {
        self.stored[node]
    }

    /// Largest per-node storage.
    #[must_use]
    pub fn max_load(&self) -> u64 {
        self.stored.iter().copied().max().unwrap_or(0)
    }

    /// Mean per-node storage.
    #[must_use]
    pub fn mean_load(&self) -> f64 {
        self.stored.iter().sum::<u64>() as f64 / self.num_nodes as f64
    }

    /// Load-imbalance factor: max load over mean load (1.0 = perfectly
    /// balanced; 0.0 for an empty cluster).
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_load();
        if mean == 0.0 {
            0.0
        } else {
            self.max_load() as f64 / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stopwords::StopwordList;
    use cca_trace::{Corpus, TraceConfig, Vocabulary};
    use cca_rand::rngs::StdRng;
    use cca_rand::SeedableRng;

    #[test]
    fn placement_and_relocation_track_storage() {
        let mut c = Cluster::new(3, 10);
        c.place(WordId(1), 0, 100);
        c.place(WordId(2), 0, 50);
        assert_eq!(c.stored_bytes(0), 150);
        assert_eq!(c.node_of(WordId(1)), Some(0));
        assert_eq!(c.node_of(WordId(3)), None);
        // Relocate word 1.
        c.place(WordId(1), 2, 100);
        assert_eq!(c.stored_bytes(0), 50);
        assert_eq!(c.stored_bytes(2), 100);
        assert_eq!(c.node_of(WordId(1)), Some(2));
    }

    #[test]
    fn load_statistics() {
        let mut c = Cluster::new(2, 10);
        c.place(WordId(0), 0, 300);
        c.place(WordId(1), 1, 100);
        assert_eq!(c.max_load(), 300);
        assert!((c.mean_load() - 200.0).abs() < 1e-12);
        assert!((c.imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_cluster_imbalance_is_zero() {
        let c = Cluster::new(4, 10);
        assert_eq!(c.imbalance(), 0.0);
    }

    #[test]
    fn with_assignment_places_all_indexed_words() {
        let cfg = TraceConfig::tiny();
        let mut rng = StdRng::seed_from_u64(13);
        let vocab = Vocabulary::generate(&cfg, &mut rng);
        let corpus = Corpus::generate(&cfg, &vocab, &mut rng);
        let index = InvertedIndex::build(&corpus, &vocab, &StopwordList::none());
        let assignment: Vec<usize> = (0..vocab.len()).map(|w| w % 4).collect();
        let cluster = Cluster::with_assignment(4, &index, &assignment);
        for w in index.keywords() {
            assert_eq!(cluster.node_of(w), Some(w.index() % 4));
        }
        let total: u64 = (0..4).map(|n| cluster.stored_bytes(n)).sum();
        assert_eq!(total, index.total_bytes());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn placing_on_missing_node_panics() {
        let mut c = Cluster::new(2, 4);
        c.place(WordId(0), 5, 1);
    }
}
