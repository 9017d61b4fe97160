//! Query execution with byte-accurate communication accounting.
//!
//! Mirrors the paper's prototype (§4.1): for each query the engine looks up
//! the node of every queried keyword, evaluates the aggregation, and logs
//! the bytes moved between nodes. As in the paper, the cost of returning the
//! final ranked results to the user is not counted, because it is
//! independent of index placement.

use crate::cluster::Cluster;
use crate::index::InvertedIndex;
use cca_hash::PageId;
use cca_trace::{Query, QueryLog, WordId};

/// How a multi-keyword operation aggregates its objects (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AggregationPolicy {
    /// Intersection-like: process the two smallest indices first, shipping
    /// the smaller to the larger's node, then forward the (small)
    /// intermediate result to each remaining keyword's node in ascending
    /// size order. This is how multi-keyword web search evaluates.
    #[default]
    Intersection,
    /// Union-like: "transfer all objects to the node at which the largest
    /// object is located and then perform the union locally".
    Union,
}

/// One inter-node shipment performed while evaluating a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Sending node.
    pub from: usize,
    /// Receiving node.
    pub to: usize,
    /// Bytes shipped.
    pub bytes: u64,
}

/// Result of executing one query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Matching pages (intersection or union of posting lists).
    pub pages: Vec<PageId>,
    /// Bytes moved between nodes to evaluate the query.
    pub comm_bytes: u64,
    /// The individual inter-node shipments (zero-byte moves omitted).
    pub transfers: Vec<Transfer>,
}

/// Aggregate statistics of a trace replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Total bytes moved between nodes.
    pub total_bytes: u64,
    /// Number of queries executed.
    pub num_queries: u64,
    /// Queries computable without any communication.
    pub local_queries: u64,
    /// Queries touching more than one keyword.
    pub multi_keyword_queries: u64,
    /// Bytes sent per node (network hotspot analysis).
    pub per_node_sent: Vec<u64>,
    /// Bytes received per node.
    pub per_node_received: Vec<u64>,
}

impl ExecutionStats {
    /// Fraction of queries that were locally computable.
    #[must_use]
    pub fn local_fraction(&self) -> f64 {
        if self.num_queries == 0 {
            0.0
        } else {
            self.local_queries as f64 / self.num_queries as f64
        }
    }

    /// Mean bytes per query.
    #[must_use]
    pub fn mean_bytes_per_query(&self) -> f64 {
        if self.num_queries == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.num_queries as f64
        }
    }

    /// The node with the highest combined sent+received traffic, with its
    /// byte count (`None` when no traffic occurred).
    #[must_use]
    pub fn hotspot(&self) -> Option<(usize, u64)> {
        self.per_node_sent
            .iter()
            .zip(&self.per_node_received)
            .map(|(&s, &r)| s + r)
            .enumerate()
            .filter(|&(_, traffic)| traffic > 0)
            .max_by_key(|&(k, traffic)| (traffic, std::cmp::Reverse(k)))
    }

    /// Traffic-imbalance factor: the hotspot's combined traffic over the
    /// per-node mean (0 when no traffic occurred).
    #[must_use]
    pub fn traffic_imbalance(&self) -> f64 {
        let n = self.per_node_sent.len();
        if n == 0 {
            return 0.0;
        }
        let total: u64 = self
            .per_node_sent
            .iter()
            .zip(&self.per_node_received)
            .map(|(&s, &r)| s + r)
            .sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / n as f64;
        self.hotspot().map_or(0.0, |(_, t)| t as f64 / mean)
    }
}

/// The placement-independent skeleton of one query's probe estimate: what
/// would ship, with all posting-size sorting and host selection already
/// resolved. Evaluating it against a placement is a pure node lookup, so
/// one shape can score arbitrarily many candidate clusters.
enum ProbeShape {
    /// Fewer than two keywords: no communication under any placement.
    Free,
    /// Intersection first hop: `bytes` ship iff `a` and `b` are on
    /// different nodes.
    FirstHop { a: WordId, b: WordId, bytes: u64 },
    /// Union gather: each shipment `(word, bytes)` ships iff its word's
    /// node differs from `host`'s node.
    Gather {
        host: WordId,
        shipments: Vec<(WordId, u64)>,
    },
}

impl ProbeShape {
    /// Probe bytes under `cluster`, replica-aware: a shipment is free iff
    /// **some** replica of its word lives at the chosen destination (the
    /// min-over-replica-choices rule). With one copy per word this is
    /// exactly the historic `node_of(w) != node_of(dest)` test.
    fn bytes_on(&self, cluster: &Cluster) -> u64 {
        match self {
            ProbeShape::Free => 0,
            ProbeShape::FirstHop { a, b, bytes } => {
                let location = join_node_on(cluster, *a, *b);
                if hosts_or_zero(cluster, *a, location) {
                    0
                } else {
                    *bytes
                }
            }
            ProbeShape::Gather { host, shipments } => {
                let host = gather_node_on(cluster, *host, shipments);
                shipments
                    .iter()
                    .filter(|&&(w, _)| !hosts_or_zero(cluster, w, host))
                    .map(|&(_, bytes)| bytes)
                    .sum()
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Replica selection rules (DESIGN.md §15)
//
// The engine consults replicas through these four helpers only, so the
// tie-break contract lives in one place:
//
// * Replica scans are ascending replica index (primary first); unplaced
//   words evaluate at node 0, mirroring the historic `unwrap_or(0)`.
// * `join_node_on` (intersection destination): the first replica of `b`
//   whose node also hosts a copy of `a` (the hop is then free), else
//   `b`'s primary.
// * `gather_node_on` (union host): the replica of the host word
//   minimizing the total shipped bytes; ties go to the lowest replica
//   index.
// * `source_node_on` (shipping source): the destination itself when a
//   replica lives there, else the first placed replica.
//
// With one copy per word each helper degenerates to the historic
// `node_of` lookup, which is what keeps r=1 bit-identical.
// ---------------------------------------------------------------------------

/// Home nodes of `w` (primary first), or node 0 when unplaced.
fn nodes_or_zero(cluster: &Cluster, w: WordId) -> impl Iterator<Item = usize> + '_ {
    let unplaced = cluster.node_of(w).is_none();
    cluster.replica_nodes(w).chain(unplaced.then_some(0))
}

/// `true` when some replica of `w` lives on `node` (unplaced words live
/// on node 0).
fn hosts_or_zero(cluster: &Cluster, w: WordId, node: usize) -> bool {
    nodes_or_zero(cluster, w).any(|n| n == node)
}

/// Destination of the intersection first hop: the first replica of `b`
/// (ascending replica index) colocated with a copy of `a`, else `b`'s
/// primary.
fn join_node_on(cluster: &Cluster, a: WordId, b: WordId) -> usize {
    let mut first = None;
    for n in nodes_or_zero(cluster, b) {
        if first.is_none() {
            first = Some(n);
        }
        if hosts_or_zero(cluster, a, n) {
            return n;
        }
    }
    first.unwrap_or(0)
}

/// Union gather host: the replica of `host` minimizing total shipped
/// bytes over `shipments`; ties to the lowest replica index.
fn gather_node_on(cluster: &Cluster, host: WordId, shipments: &[(WordId, u64)]) -> usize {
    let mut best: Option<(u64, usize)> = None;
    for n in nodes_or_zero(cluster, host) {
        let bytes: u64 = shipments
            .iter()
            .filter(|&&(w, _)| !hosts_or_zero(cluster, w, n))
            .map(|&(_, b)| b)
            .sum();
        if best.is_none_or(|(bb, _)| bytes < bb) {
            best = Some((bytes, n));
        }
    }
    best.map_or(0, |(_, n)| n)
}

/// Source for shipping `w` to `to`: `to` itself when a replica lives
/// there (free), else the first placed replica (primary-first).
fn source_node_on(cluster: &Cluster, w: WordId, to: usize) -> usize {
    if hosts_or_zero(cluster, w, to) {
        return to;
    }
    nodes_or_zero(cluster, w).next().unwrap_or(0)
}

/// A query engine bound to an index and a cluster placement.
#[derive(Debug, Clone, Copy)]
pub struct QueryEngine<'a> {
    index: &'a InvertedIndex,
    cluster: &'a Cluster,
    policy: AggregationPolicy,
}

impl<'a> QueryEngine<'a> {
    /// Creates an engine over `index` placed on `cluster`.
    #[must_use]
    pub fn new(index: &'a InvertedIndex, cluster: &'a Cluster, policy: AggregationPolicy) -> Self {
        QueryEngine {
            index,
            cluster,
            policy,
        }
    }

    /// Node hosting keyword `w`; unplaced keywords fall back to node 0 so
    /// replay never fails (an unplaced keyword has an empty posting list
    /// and contributes no bytes).
    fn node_of(&self, w: WordId) -> usize {
        self.cluster.node_of(w).unwrap_or(0)
    }

    /// Executes one query.
    #[must_use]
    pub fn execute(&self, query: &Query) -> QueryResult {
        match self.policy {
            AggregationPolicy::Intersection => self.execute_intersection(query),
            AggregationPolicy::Union => self.execute_union(query),
        }
    }

    fn execute_intersection(&self, query: &Query) -> QueryResult {
        if query.words.is_empty() {
            return QueryResult {
                pages: Vec::new(),
                comm_bytes: 0,
                transfers: Vec::new(),
            };
        }
        if query.words.len() == 1 {
            return QueryResult {
                pages: self.index.posting(query.words[0]).to_vec(),
                comm_bytes: 0,
                transfers: Vec::new(),
            };
        }
        let order = self.intersection_order(&query.words);
        let (a, b) = (order[0], order[1]);
        let mut transfers = Vec::new();
        // Ship the smaller of the first two to a replica of the larger —
        // preferring a replica already colocated with a copy of the
        // smaller (free hop; `join_node_on` tie-breaks).
        let mut location = join_node_on(self.cluster, a, b);
        if !hosts_or_zero(self.cluster, a, location) && self.index.size_bytes(a) > 0 {
            transfers.push(Transfer {
                from: source_node_on(self.cluster, a, location),
                to: location,
                bytes: self.index.size_bytes(a),
            });
        }
        let mut result = InvertedIndex::intersect(self.index.posting(a), self.index.posting(b));
        // Remaining keywords: forward the (shrinking) intermediate result
        // — free when any replica of `w` lives at the current location,
        // else to `w`'s primary copy.
        for &w in &order[2..] {
            if !hosts_or_zero(self.cluster, w, location) {
                let node = nodes_or_zero(self.cluster, w).next().unwrap_or(0);
                let bytes = (result.len() * PageId::WIRE_SIZE) as u64;
                if bytes > 0 {
                    transfers.push(Transfer {
                        from: location,
                        to: node,
                        bytes,
                    });
                }
                location = node;
            }
            if result.is_empty() {
                continue;
            }
            result = InvertedIndex::intersect(&result, self.index.posting(w));
        }
        QueryResult {
            pages: result,
            comm_bytes: transfers.iter().map(|t| t.bytes).sum(),
            transfers,
        }
    }

    fn execute_union(&self, query: &Query) -> QueryResult {
        if query.words.is_empty() {
            return QueryResult {
                pages: Vec::new(),
                comm_bytes: 0,
                transfers: Vec::new(),
            };
        }
        // Gather at the replica of the host word that minimises shipped
        // bytes over the whole query (`gather_node_on` tie-breaks).
        let (host_word, shipments) = self.union_gather(&query.words);
        let host = gather_node_on(self.cluster, host_word, &shipments);
        let mut transfers = Vec::new();
        let mut result: Vec<PageId> = Vec::new();
        for &w in &query.words {
            if !hosts_or_zero(self.cluster, w, host) && self.index.size_bytes(w) > 0 {
                transfers.push(Transfer {
                    from: source_node_on(self.cluster, w, host),
                    to: host,
                    bytes: self.index.size_bytes(w),
                });
            }
            result = InvertedIndex::union(&result, self.index.posting(w));
        }
        QueryResult {
            pages: result,
            comm_bytes: transfers.iter().map(|t| t.bytes).sum(),
            transfers,
        }
    }

    /// The placement-independent part of `query`'s probe estimate: which
    /// keywords matter and how many bytes each would ship. Computing this
    /// once lets any number of candidate clusters be scored without
    /// re-sorting the query per candidate (see [`Self::probe_batch`]);
    /// [`Self::model_probe`], [`Self::home_node`] and `Pipeline::probe`
    /// all bottom out here.
    fn probe_shape(&self, query: &Query) -> ProbeShape {
        if query.words.len() < 2 {
            return ProbeShape::Free;
        }
        match self.policy {
            AggregationPolicy::Intersection => {
                let order = self.intersection_order(&query.words);
                let (a, b) = (order[0], order[1]);
                ProbeShape::FirstHop {
                    a,
                    b,
                    bytes: self.index.size_bytes(a),
                }
            }
            AggregationPolicy::Union => {
                let (host, shipments) = self.union_gather(&query.words);
                ProbeShape::Gather { host, shipments }
            }
        }
    }

    /// The §4 intersection order: ascending posting length, ties by word
    /// id for determinism.
    fn intersection_order(&self, words: &[WordId]) -> Vec<WordId> {
        let mut order = words.to_vec();
        order.sort_unstable_by_key(|&w| (self.index.posting(w).len(), w));
        order
    }

    /// The union's host word (the longest posting list, ties to the larger
    /// id), whose node gathers the union, and every word's shipment bytes
    /// in query order. `words` must be non-empty.
    fn union_gather(&self, words: &[WordId]) -> (WordId, Vec<(WordId, u64)>) {
        let host = *words
            .iter()
            .max_by_key(|&&w| (self.index.posting(w).len(), w))
            .expect("non-empty query");
        let shipments = words
            .iter()
            .map(|&w| (w, self.index.size_bytes(w)))
            .collect();
        (host, shipments)
    }

    /// Predicts the communication bytes of `query` **without** touching
    /// posting-list contents — the serving-layer analogue of the solver's
    /// O(deg) move deltas: cost from metadata only, no full evaluation.
    ///
    /// * [`AggregationPolicy::Union`] — exact: every non-host keyword on a
    ///   foreign node ships its whole list, which depends only on sizes
    ///   and placement.
    /// * [`AggregationPolicy::Intersection`] — a **lower bound**: the
    ///   first hop (smaller of the two smallest lists, when split) is
    ///   modelled exactly, but forwarding bytes depend on intermediate
    ///   result sizes, which only [`Self::execute`] knows. For one- and
    ///   two-keyword queries the bound is tight.
    #[must_use]
    pub fn model_probe(&self, query: &Query) -> u64 {
        self.probe_shape(query).bytes_on(self.cluster)
    }

    /// Sums [`Self::model_probe`] over a whole log — a placement-quality
    /// estimate that costs O(total query words) instead of a full replay.
    /// Exact under [`AggregationPolicy::Union`]; a lower bound on
    /// [`ExecutionStats::total_bytes`] under
    /// [`AggregationPolicy::Intersection`].
    #[must_use]
    pub fn probe_log(&self, log: &QueryLog) -> u64 {
        log.iter().map(|q| self.model_probe(q)).sum()
    }

    /// Probes every query of `queries` individually against the engine's
    /// own cluster — the admission-side batch estimator: one call per
    /// admission window instead of one [`Self::model_probe`] call per
    /// query, with entry `i` equal to `model_probe(&queries[i])` exactly.
    ///
    /// The serving layer (`cca serve`) uses these per-query byte
    /// estimates as virtual latency budgets before deciding to execute,
    /// so the same caveat applies: exact under
    /// [`AggregationPolicy::Union`], a lower bound under
    /// [`AggregationPolicy::Intersection`].
    #[must_use]
    pub fn probe_each(&self, queries: &[Query]) -> Vec<u64> {
        queries.iter().map(|q| self.model_probe(q)).collect()
    }

    /// The node where `query`'s evaluation begins — the coalescing key
    /// for batched admission (queries sharing a home node share the
    /// posting data their first step reads).
    ///
    /// * [`AggregationPolicy::Intersection`] — the node of the larger of
    ///   the two smallest posting lists, where `execute` performs the
    ///   first intersection.
    /// * [`AggregationPolicy::Union`] — the node of the largest posting
    ///   list, which hosts the union.
    /// * Fewer than two keywords — the single keyword's node, or 0 for an
    ///   empty query (both are free to evaluate anywhere).
    #[must_use]
    pub fn home_node(&self, query: &Query) -> usize {
        match self.probe_shape(query) {
            ProbeShape::Free => query.words.first().map_or(0, |&w| self.node_of(w)),
            ProbeShape::FirstHop { a, b, .. } => join_node_on(self.cluster, a, b),
            ProbeShape::Gather { host, shipments } => {
                gather_node_on(self.cluster, host, &shipments)
            }
        }
    }

    /// Probes `log` against `k` candidate clusters at once: each query's
    /// placement-independent shape (posting-size sort, host selection,
    /// shipment bytes) is computed **once** and evaluated against every
    /// candidate, instead of re-deriving it per candidate as k separate
    /// [`Self::probe_log`] calls would.
    ///
    /// Entry `c` equals `probe_log(log)` of an engine bound to
    /// `candidates[c]` exactly (u64 arithmetic — no ordering caveats), and
    /// the engine's own cluster never influences the result; a batch of 1
    /// is [`Self::probe_log`].
    #[must_use]
    pub fn probe_batch(&self, log: &QueryLog, candidates: &[&Cluster]) -> Vec<u64> {
        let mut totals = vec![0u64; candidates.len()];
        if candidates.is_empty() {
            return totals;
        }
        for q in log.iter() {
            let shape = self.probe_shape(q);
            for (t, cluster) in totals.iter_mut().zip(candidates) {
                *t += shape.bytes_on(cluster);
            }
        }
        totals
    }

    /// Replays a whole query log and aggregates the statistics.
    #[must_use]
    pub fn replay(&self, log: &QueryLog) -> ExecutionStats {
        let mut stats = ExecutionStats {
            per_node_sent: vec![0; self.cluster.num_nodes()],
            per_node_received: vec![0; self.cluster.num_nodes()],
            ..ExecutionStats::default()
        };
        for q in log.iter() {
            let r = self.execute(q);
            stats.num_queries += 1;
            stats.total_bytes += r.comm_bytes;
            for t in &r.transfers {
                stats.per_node_sent[t.from] += t.bytes;
                stats.per_node_received[t.to] += t.bytes;
            }
            if r.comm_bytes == 0 {
                stats.local_queries += 1;
            }
            if q.words.len() > 1 {
                stats.multi_keyword_queries += 1;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stopwords::StopwordList;
    use cca_rand::rngs::StdRng;
    use cca_rand::SeedableRng;
    use cca_trace::{Corpus, Query, TraceConfig, Vocabulary};

    /// Builds a hand-crafted index: word ids 0..4 with controlled posting
    /// sizes, placed on 2 nodes.
    struct Fixture {
        index: InvertedIndex,
        vocab: Vocabulary,
    }

    fn fixture() -> Fixture {
        let cfg = TraceConfig::tiny();
        let mut rng = StdRng::seed_from_u64(5);
        let vocab = Vocabulary::generate(&cfg, &mut rng);
        let corpus = Corpus::generate(&cfg, &vocab, &mut rng);
        let index = InvertedIndex::build(&corpus, &vocab, &StopwordList::none());
        Fixture { index, vocab }
    }

    /// Two indexed words with distinct posting sizes.
    fn two_words(f: &Fixture) -> (WordId, WordId) {
        let mut ws: Vec<WordId> = f.index.keywords().collect();
        ws.sort_unstable_by_key(|&w| (f.index.posting(w).len(), w));
        let small = ws[0];
        let large = *ws.last().unwrap();
        assert!(f.index.posting(small).len() < f.index.posting(large).len());
        (small, large)
    }

    #[test]
    fn colocated_pair_costs_nothing() {
        let f = fixture();
        let (a, b) = two_words(&f);
        let mut assignment = vec![0usize; f.vocab.len()];
        for w in f.index.keywords() {
            assignment[w.index()] = 0;
        }
        let cluster = Cluster::with_assignment(2, &f.index, &assignment);
        let engine = QueryEngine::new(&f.index, &cluster, AggregationPolicy::Intersection);
        let r = engine.execute(&Query { words: vec![a, b] });
        assert_eq!(r.comm_bytes, 0);
    }

    #[test]
    fn split_pair_ships_smaller_index() {
        let f = fixture();
        let (small, large) = two_words(&f);
        let mut assignment = vec![0usize; f.vocab.len()];
        assignment[small.index()] = 0;
        assignment[large.index()] = 1;
        let cluster = Cluster::with_assignment(2, &f.index, &assignment);
        let engine = QueryEngine::new(&f.index, &cluster, AggregationPolicy::Intersection);
        let r = engine.execute(&Query {
            words: vec![small, large],
        });
        assert_eq!(r.comm_bytes, f.index.size_bytes(small));
        // Result contents are placement-independent.
        let r2 = {
            let mut a2 = assignment.clone();
            a2[large.index()] = 0;
            let c2 = Cluster::with_assignment(2, &f.index, &a2);
            QueryEngine::new(&f.index, &c2, AggregationPolicy::Intersection)
                .execute(&Query {
                    words: vec![small, large],
                })
                .pages
        };
        assert_eq!(r.pages, r2);
    }

    #[test]
    fn single_keyword_queries_are_free() {
        let f = fixture();
        let (a, _) = two_words(&f);
        let assignment = vec![1usize; f.vocab.len()];
        let cluster = Cluster::with_assignment(2, &f.index, &assignment);
        let engine = QueryEngine::new(&f.index, &cluster, AggregationPolicy::Intersection);
        let r = engine.execute(&Query { words: vec![a] });
        assert_eq!(r.comm_bytes, 0);
        assert_eq!(r.pages, f.index.posting(a));
    }

    #[test]
    fn three_word_query_forwards_intermediate_result() {
        let f = fixture();
        let mut ws: Vec<WordId> = f.index.keywords().collect();
        ws.sort_unstable_by_key(|&w| (f.index.posting(w).len(), w));
        // Pick three words with the two smallest on node 0, third on node 1.
        let (a, b, c) = (ws[0], ws[1], *ws.last().unwrap());
        let mut assignment = vec![0usize; f.vocab.len()];
        assignment[c.index()] = 1;
        let cluster = Cluster::with_assignment(2, &f.index, &assignment);
        let engine = QueryEngine::new(&f.index, &cluster, AggregationPolicy::Intersection);
        let r = engine.execute(&Query {
            words: vec![a, b, c],
        });
        // First intersection is local (a,b on node 0); then the result ships
        // to node 1.
        let first = InvertedIndex::intersect(f.index.posting(a), f.index.posting(b));
        assert_eq!(r.comm_bytes, (first.len() * 8) as u64);
        // Pages equal the full intersection.
        assert_eq!(r.pages, f.index.intersect_keywords(&[a, b, c]));
    }

    #[test]
    fn union_ships_everything_to_largest() {
        let f = fixture();
        let (small, large) = two_words(&f);
        let mut assignment = vec![0usize; f.vocab.len()];
        assignment[small.index()] = 0;
        assignment[large.index()] = 1;
        let cluster = Cluster::with_assignment(2, &f.index, &assignment);
        let engine = QueryEngine::new(&f.index, &cluster, AggregationPolicy::Union);
        let r = engine.execute(&Query {
            words: vec![small, large],
        });
        assert_eq!(r.comm_bytes, f.index.size_bytes(small));
        assert_eq!(
            r.pages.len(),
            InvertedIndex::union(f.index.posting(small), f.index.posting(large)).len()
        );
    }

    #[test]
    fn replay_aggregates_consistently() {
        let f = fixture();
        let (a, b) = two_words(&f);
        let mut assignment = vec![0usize; f.vocab.len()];
        assignment[b.index()] = 1;
        let cluster = Cluster::with_assignment(2, &f.index, &assignment);
        let engine = QueryEngine::new(&f.index, &cluster, AggregationPolicy::Intersection);
        let log = QueryLog {
            queries: vec![
                Query { words: vec![a] },
                Query { words: vec![a, b] },
                Query { words: vec![a, b] },
            ],
            universe: f.vocab.len(),
        };
        let stats = engine.replay(&log);
        assert_eq!(stats.num_queries, 3);
        assert_eq!(stats.multi_keyword_queries, 2);
        assert_eq!(stats.local_queries, 1);
        assert_eq!(stats.total_bytes, 2 * f.index.size_bytes(a));
        assert!((stats.local_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert!(stats.mean_bytes_per_query() > 0.0);
    }

    #[test]
    fn transfers_sum_to_comm_bytes_and_fill_node_totals() {
        let f = fixture();
        let mut ws: Vec<WordId> = f.index.keywords().collect();
        ws.sort_unstable_by_key(|&w| (f.index.posting(w).len(), w));
        let assignment: Vec<usize> = (0..f.vocab.len()).map(|w| w % 3).collect();
        let cluster = Cluster::with_assignment(3, &f.index, &assignment);
        let engine = QueryEngine::new(&f.index, &cluster, AggregationPolicy::Intersection);
        let q = Query {
            words: vec![ws[0], ws[1], *ws.last().unwrap()],
        };
        let r = engine.execute(&q);
        let sum: u64 = r.transfers.iter().map(|t| t.bytes).sum();
        assert_eq!(sum, r.comm_bytes);
        for t in &r.transfers {
            assert_ne!(t.from, t.to);
            assert!(t.bytes > 0);
        }

        let log = QueryLog {
            queries: vec![q],
            universe: f.vocab.len(),
        };
        let stats = engine.replay(&log);
        assert_eq!(stats.per_node_sent.iter().sum::<u64>(), stats.total_bytes);
        assert_eq!(
            stats.per_node_received.iter().sum::<u64>(),
            stats.total_bytes
        );
        if stats.total_bytes > 0 {
            let (node, traffic) = stats.hotspot().expect("traffic exists");
            assert!(node < 3);
            assert!(traffic <= 2 * stats.total_bytes);
            assert!(stats.traffic_imbalance() >= 1.0);
        }
    }

    #[test]
    fn hotspot_none_without_traffic() {
        let f = fixture();
        let assignment = vec![0usize; f.vocab.len()];
        let cluster = Cluster::with_assignment(1, &f.index, &assignment);
        let engine = QueryEngine::new(&f.index, &cluster, AggregationPolicy::Intersection);
        let log = QueryLog {
            queries: vec![],
            universe: f.vocab.len(),
        };
        let stats = engine.replay(&log);
        assert!(stats.hotspot().is_none());
        assert_eq!(stats.traffic_imbalance(), 0.0);
    }

    #[test]
    fn union_probe_is_exact() {
        let f = fixture();
        // Scatter keywords over 3 nodes and compare probe vs execution on
        // every pairing of a sample of words.
        let assignment: Vec<usize> = (0..f.vocab.len()).map(|w| w % 3).collect();
        let cluster = Cluster::with_assignment(3, &f.index, &assignment);
        let engine = QueryEngine::new(&f.index, &cluster, AggregationPolicy::Union);
        let ws: Vec<WordId> = f.index.keywords().collect();
        for (i, &a) in ws.iter().enumerate().take(6) {
            for &b in ws.iter().skip(i + 1).take(6) {
                let q = Query { words: vec![a, b] };
                assert_eq!(engine.model_probe(&q), engine.execute(&q).comm_bytes);
            }
        }
        let q3 = Query {
            words: ws.iter().copied().take(5).collect(),
        };
        assert_eq!(engine.model_probe(&q3), engine.execute(&q3).comm_bytes);
    }

    #[test]
    fn intersection_probe_lower_bounds_execution() {
        let f = fixture();
        let assignment: Vec<usize> = (0..f.vocab.len()).map(|w| w % 3).collect();
        let cluster = Cluster::with_assignment(3, &f.index, &assignment);
        let engine = QueryEngine::new(&f.index, &cluster, AggregationPolicy::Intersection);
        let ws: Vec<WordId> = f.index.keywords().collect();
        // Two-keyword queries: the bound is tight.
        for (i, &a) in ws.iter().enumerate().take(6) {
            for &b in ws.iter().skip(i + 1).take(6) {
                let q = Query { words: vec![a, b] };
                assert_eq!(engine.model_probe(&q), engine.execute(&q).comm_bytes);
            }
        }
        // Longer queries: never above the executed bytes.
        let q = Query {
            words: ws.iter().copied().take(5).collect(),
        };
        assert!(engine.model_probe(&q) <= engine.execute(&q).comm_bytes);
        // Single keyword and empty queries probe to zero.
        assert_eq!(engine.model_probe(&Query { words: vec![ws[0]] }), 0);
        assert_eq!(engine.model_probe(&Query { words: vec![] }), 0);
    }

    #[test]
    fn probe_log_matches_replay_under_union() {
        let f = fixture();
        let ws: Vec<WordId> = f.index.keywords().collect();
        let assignment: Vec<usize> = (0..f.vocab.len()).map(|w| w % 2).collect();
        let cluster = Cluster::with_assignment(2, &f.index, &assignment);
        let engine = QueryEngine::new(&f.index, &cluster, AggregationPolicy::Union);
        let log = QueryLog {
            queries: vec![
                Query { words: vec![ws[0]] },
                Query {
                    words: vec![ws[0], ws[1]],
                },
                Query {
                    words: ws.iter().copied().take(4).collect(),
                },
            ],
            universe: f.vocab.len(),
        };
        assert_eq!(engine.probe_log(&log), engine.replay(&log).total_bytes);
        let inter = QueryEngine::new(&f.index, &cluster, AggregationPolicy::Intersection);
        assert!(inter.probe_log(&log) <= inter.replay(&log).total_bytes);
    }

    #[test]
    fn probe_batch_matches_per_cluster_probe_log() {
        let f = fixture();
        let log = QueryLog {
            queries: {
                let ws: Vec<WordId> = f.index.keywords().collect();
                vec![
                    Query { words: vec![ws[0]] },
                    Query {
                        words: vec![ws[0], ws[1]],
                    },
                    Query {
                        words: ws.iter().copied().take(5).collect(),
                    },
                ]
            },
            universe: f.vocab.len(),
        };
        let clusters: Vec<Cluster> = (0..4)
            .map(|c| {
                let assignment: Vec<usize> = (0..f.vocab.len()).map(|w| (w + c) % 3).collect();
                Cluster::with_assignment(3, &f.index, &assignment)
            })
            .collect();
        let refs: Vec<&Cluster> = clusters.iter().collect();
        for policy in [AggregationPolicy::Intersection, AggregationPolicy::Union] {
            // The engine's own cluster must not influence the result.
            let engine = QueryEngine::new(&f.index, &clusters[0], policy);
            let batch = engine.probe_batch(&log, &refs);
            for (c, cluster) in clusters.iter().enumerate() {
                let solo = QueryEngine::new(&f.index, cluster, policy).probe_log(&log);
                assert_eq!(batch[c], solo, "{policy:?} candidate {c}");
            }
            assert!(engine.probe_batch(&log, &[]).is_empty());
        }
    }

    #[test]
    fn probe_each_matches_model_probe() {
        let f = fixture();
        let ws: Vec<WordId> = f.index.keywords().collect();
        let assignment: Vec<usize> = (0..f.vocab.len()).map(|w| w % 3).collect();
        let cluster = Cluster::with_assignment(3, &f.index, &assignment);
        let queries = vec![
            Query { words: vec![] },
            Query { words: vec![ws[0]] },
            Query {
                words: vec![ws[0], ws[1]],
            },
            Query {
                words: ws.iter().copied().take(5).collect(),
            },
        ];
        for policy in [AggregationPolicy::Intersection, AggregationPolicy::Union] {
            let engine = QueryEngine::new(&f.index, &cluster, policy);
            let batch = engine.probe_each(&queries);
            assert_eq!(batch.len(), queries.len());
            for (i, q) in queries.iter().enumerate() {
                assert_eq!(batch[i], engine.model_probe(q), "{policy:?} query {i}");
            }
            assert!(engine.probe_each(&[]).is_empty());
        }
    }

    #[test]
    fn home_node_matches_first_evaluation_site() {
        let f = fixture();
        let mut ws: Vec<WordId> = f.index.keywords().collect();
        ws.sort_unstable_by_key(|&w| (f.index.posting(w).len(), w));
        let (small, large) = (ws[0], *ws.last().unwrap());
        let mut assignment = vec![0usize; f.vocab.len()];
        assignment[small.index()] = 1;
        assignment[large.index()] = 2;
        let cluster = Cluster::with_assignment(3, &f.index, &assignment);

        let inter = QueryEngine::new(&f.index, &cluster, AggregationPolicy::Intersection);
        // Intersection starts at the larger of the two smallest lists.
        assert_eq!(
            inter.home_node(&Query {
                words: vec![small, ws[1]],
            }),
            inter.node_of(ws[1])
        );
        // Single keyword: its own node; empty: node 0.
        assert_eq!(inter.home_node(&Query { words: vec![small] }), 1);
        assert_eq!(inter.home_node(&Query { words: vec![] }), 0);

        let union = QueryEngine::new(&f.index, &cluster, AggregationPolicy::Union);
        // Union gathers at the largest list's node.
        assert_eq!(
            union.home_node(&Query {
                words: vec![small, large],
            }),
            2
        );
        // Home node is where a query whose keywords all live there runs
        // for free.
        let colocated = Query {
            words: vec![small, small],
        };
        assert_eq!(inter.home_node(&colocated), 1);
        assert_eq!(inter.execute(&colocated).comm_bytes, 0);
    }

    #[test]
    fn empty_query_is_harmless() {
        let f = fixture();
        let assignment = vec![0usize; f.vocab.len()];
        let cluster = Cluster::with_assignment(1, &f.index, &assignment);
        for policy in [AggregationPolicy::Intersection, AggregationPolicy::Union] {
            let engine = QueryEngine::new(&f.index, &cluster, policy);
            let r = engine.execute(&Query { words: vec![] });
            assert_eq!(r.comm_bytes, 0);
            assert!(r.pages.is_empty());
        }
    }
}
