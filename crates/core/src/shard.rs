//! Range-sharded view of the correlation graph for million-object
//! instances.
//!
//! [`ShardedGraph`] partitions the problem's one
//! [`crate::graph::CorrelationGraph`] by *object range*: shard `s` owns
//! the row block `[s·rows_per_shard, (s+1)·rows_per_shard)` and the edges
//! whose **smaller endpoint** falls in that block, recorded as ascending
//! [`EdgeId`] ranges of the graph's one edge list. It copies no rows and
//! no edge columns: the bulk folds (`cost`, `cost_batch`,
//! `cost_replicas`) run each shard's ranges through the graph's range
//! folds on `cca-par` workers, and the per-shard partials are added **in
//! shard-index order** from `-0.0`, so every result is identical for
//! every `threads` value.
//!
//! Bit-compatibility with the flat graph (DESIGN.md §11):
//!
//! - `shard_count = 1` owns every edge as the one range the flat folds
//!   walk, and `-0.0 + x` is bitwise `x`, so its results are the flat
//!   bits. Trailing empty shards contribute the `-0.0` reduce identity.
//! - For `shard_count > 1` the partials are a different association of
//!   the same per-edge terms. On dyadic weights every addition is exact
//!   and the bits still match the flat fold; otherwise they can differ in
//!   the last bits.

use crate::graph::{CorrelationGraph, EdgeId, PlacementBatch};
use crate::placement::Placement;
use crate::replica::ReplicaPlacement;
use std::ops::Range;

/// Partition of a [`CorrelationGraph`] into contiguous row blocks, each
/// holding the ascending [`EdgeId`] ranges of the edges it owns (see the
/// module docs for the bit contract).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedGraph {
    rows_per_shard: usize,
    /// Edge count of the partitioned graph; every fold checks its graph
    /// against it.
    num_edges: usize,
    /// Shard `s` owns the edges of `shards[s]`, ranges in ascending
    /// [`EdgeId`] order.
    shards: Vec<Vec<Range<EdgeId>>>,
}

impl ShardedGraph {
    /// Partitions `graph` into `shard_count` shards (clamped to
    /// `[1, max(num_objects, 1)]`) in one pass over its edge list. Runs
    /// of consecutive edges with the same owner become one range, so a
    /// graph whose pairs are sorted by `(a, b)` — every problem straight
    /// from [`crate::CcaProblemBuilder::build`] — gives each shard at
    /// most one range.
    #[must_use]
    pub fn build(graph: &CorrelationGraph, shard_count: usize) -> ShardedGraph {
        let num_objects = graph.num_objects();
        let shard_count = shard_count.clamp(1, num_objects.max(1));
        // Ceil split so exactly `shard_count` blocks cover every row; the
        // max(1) keeps the owner division defined on empty graphs.
        let rows_per_shard = num_objects.div_ceil(shard_count).max(1);
        let mut shards = vec![Vec::new(); shard_count];
        for edge in graph.edges() {
            let owned: &mut Vec<Range<EdgeId>> =
                &mut shards[edge.a.min(edge.b).index() / rows_per_shard];
            let next = EdgeId(edge.id.0 + 1);
            match owned.last_mut() {
                Some(range) if range.end == edge.id => range.end = next,
                _ => owned.push(edge.id..next),
            }
        }
        ShardedGraph {
            rows_per_shard,
            num_edges: graph.num_edges(),
            shards,
        }
    }

    /// Number of shards (the clamped `shard_count` the view was built
    /// with; trailing shards may own no rows).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Rows per shard (ceil of `num_objects / shard_count`).
    #[must_use]
    pub fn rows_per_shard(&self) -> usize {
        self.rows_per_shard
    }

    /// The ascending [`EdgeId`] ranges of the edges shard `s` owns.
    ///
    /// # Panics
    ///
    /// Panics if `s >= shard_count()`.
    #[must_use]
    pub fn edge_ranges(&self, s: usize) -> &[Range<EdgeId>] {
        &self.shards[s]
    }

    /// Resident size of the partition in bytes: its range lists, a few
    /// bytes per shard when the pairs are sorted by `(a, b)`.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.shards.len() * size_of::<Vec<Range<EdgeId>>>()
            + self.shards.iter().map(Vec::len).sum::<usize>() * size_of::<Range<EdgeId>>()
    }

    /// Runs `fold` over `graph` and each shard's edge ranges on up to
    /// `threads` `cca-par` workers and returns the partials in
    /// shard-index order, whichever worker produced them.
    ///
    /// # Panics
    ///
    /// Panics if `graph` does not have the partitioned edge count.
    fn partials<T: Send>(
        &self,
        graph: &CorrelationGraph,
        threads: usize,
        fold: impl Fn(&CorrelationGraph, &[Range<EdgeId>]) -> T + Sync,
    ) -> Vec<T> {
        assert_eq!(
            graph.num_edges(),
            self.num_edges,
            "graph is not the one this partition was built from"
        );
        cca_par::par_map_indexed(threads, self.shards.len(), |s| fold(graph, &self.shards[s]))
    }

    /// The CCA objective of `placement` on `graph` (the graph this
    /// partition was built from): each shard folds its owned edges in
    /// [`EdgeId`] order from `-0.0`, and the partials are added in shard
    /// order from `-0.0`. Identical for every `threads` value; with one
    /// shard, bit-identical to [`CorrelationGraph::cost`].
    ///
    /// # Panics
    ///
    /// Panics if the placement covers fewer objects than the graph, or if
    /// `graph`'s edge count differs from the partitioned graph's.
    #[must_use]
    pub fn cost(&self, graph: &CorrelationGraph, placement: &Placement, threads: usize) -> f64 {
        sum_in_shard_order(self.partials(graph, threads, |g, edges| g.cost_over(edges, placement)))
    }

    /// [`CorrelationGraph::cost_batch`] per shard, the partials of each
    /// column added in shard order from `-0.0` — the reduction of
    /// [`ShardedGraph::cost`], column by column. An empty batch yields an
    /// empty vector.
    ///
    /// # Panics
    ///
    /// As for [`ShardedGraph::cost`].
    #[must_use]
    pub fn cost_batch(
        &self,
        graph: &CorrelationGraph,
        batch: &PlacementBatch,
        threads: usize,
    ) -> Vec<f64> {
        let mut totals = vec![-0.0f64; batch.width()];
        for partial in self.partials(graph, threads, |g, edges| g.cost_batch_over(edges, batch)) {
            for (t, p) in totals.iter_mut().zip(partial) {
                *t += p;
            }
        }
        totals
    }

    /// [`CorrelationGraph::cost_replicas`] per shard, reduced as
    /// [`ShardedGraph::cost`]; with `r = 1` it is
    /// `cost(graph, rp.primary(), threads)` bit for bit.
    ///
    /// # Panics
    ///
    /// As for [`ShardedGraph::cost`].
    #[must_use]
    pub fn cost_replicas(
        &self,
        graph: &CorrelationGraph,
        rp: &ReplicaPlacement,
        threads: usize,
    ) -> f64 {
        sum_in_shard_order(
            self.partials(graph, threads, |g, edges| g.cost_replicas_over(edges, rp)),
        )
    }
}

/// Adds per-shard partials in shard order from the `-0.0` identity
/// (`-0.0 + x` is bitwise `x`, so one shard returns its partial as is).
fn sum_in_shard_order(partials: Vec<f64>) -> f64 {
    partials.into_iter().fold(-0.0, |total, p| total + p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{CcaProblem, ObjectId};

    fn problem() -> CcaProblem {
        // Dyadic weights: correlations in eighths, costs integral.
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..5).map(|i| b.add_object(format!("o{i}"), 1)).collect();
        for (a, d, eighths, cost) in [
            (0, 1, 8, 16.0),
            (0, 2, 4, 4.0),
            (1, 3, 6, 8.0),
            (2, 3, 2, 2.0),
            (3, 4, 7, 16.0),
            (1, 4, 1, 1.0),
        ] {
            b.add_pair(o[a], o[d], f64::from(eighths) / 8.0, cost)
                .unwrap();
        }
        b.uniform_capacities(3, 10).build().unwrap()
    }

    #[test]
    fn builder_order_gives_each_shard_one_range() {
        let p = problem();
        // Pairs sorted by (a, b): (0,1) (0,2) (1,3) (1,4) (2,3) (3,4).
        let sg = ShardedGraph::build(p.graph(), 2);
        assert_eq!(sg.rows_per_shard(), 3);
        assert_eq!(sg.edge_ranges(0), &[EdgeId(0)..EdgeId(5)]);
        assert_eq!(sg.edge_ranges(1), &[EdgeId(5)..EdgeId(6)]);
        let one = ShardedGraph::build(p.graph(), 1);
        assert_eq!(one.edge_ranges(0), &[p.graph().all_edges()]);
    }

    #[test]
    fn scattered_owners_give_several_ranges_that_cover_every_edge_once() {
        let p = problem();
        // New ids 0,2,4,3,1 for objects 0..5: the pair list keeps its
        // storage order, so edge 4 (now (3, 4)) interrupts shard 0's run.
        let keep: Vec<ObjectId> = [0, 4, 1, 3, 2].map(ObjectId).to_vec();
        let (sub, _) = p.restrict_to(&keep);
        let sg = ShardedGraph::build(sub.graph(), 2);
        let ranges: Vec<_> = (0..2).flat_map(|s| sg.edge_ranges(s).to_vec()).collect();
        assert!(
            ranges.len() > 2,
            "expected a fragmented partition: {ranges:?}"
        );
        let mut hits = vec![0; sub.graph().num_edges()];
        for s in 0..sg.shard_count() {
            for range in sg.edge_ranges(s) {
                assert!(range.start < range.end);
                for e in range.start.0..range.end.0 {
                    let edge = sub.graph().edge(EdgeId(e));
                    assert_eq!(edge.a.min(edge.b).index() / sg.rows_per_shard(), s);
                    hits[e as usize] += 1;
                }
            }
            assert!(sg.edge_ranges(s).windows(2).all(|w| w[0].end < w[1].start));
        }
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn shard_count_clamps_and_trailing_shards_may_be_empty() {
        let p = problem();
        // 64 requested shards clamp to num_objects = 5.
        let sg = ShardedGraph::build(p.graph(), 64);
        assert_eq!(sg.shard_count(), 5);
        assert!(sg.edge_ranges(4).is_empty());
        // Zero-object graph still builds one (empty) shard, whose cost is
        // the `-0.0` reduce identity.
        let g0 = CorrelationGraph::build(0, &[]);
        let empty = ShardedGraph::build(&g0, 4);
        assert_eq!(empty.shard_count(), 1);
        assert_eq!(empty.memory_bytes(), size_of::<Vec<Range<EdgeId>>>());
        assert_eq!(
            empty.cost(&g0, &Placement::new(Vec::new(), 1), 1).to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "graph is not the one this partition was built from")]
    fn folding_another_graph_panics() {
        let p = problem();
        let sg = ShardedGraph::build(p.graph(), 2);
        let other = CorrelationGraph::build(5, &p.pairs()[..5]);
        let _ = sg.cost(&other, &Placement::new(vec![0; 5], 3), 1);
    }

    #[test]
    fn folds_match_the_flat_graph_on_dyadic_weights() {
        let p = problem();
        let g = p.graph();
        let pl = Placement::new(vec![0, 1, 0, 1, 2], 3);
        let batch = PlacementBatch::from_placements(&[pl.clone(), Placement::new(vec![0; 5], 3)]);
        let rp = ReplicaPlacement::from_columns(vec![
            pl.clone(),
            Placement::new(vec![2, 1, 0, 0, 1], 3),
        ]);
        for shards in [1, 2, 3, 5] {
            let sg = ShardedGraph::build(g, shards);
            for threads in [1, 2, 4] {
                assert_eq!(sg.cost(g, &pl, threads).to_bits(), g.cost(&pl).to_bits());
                let got: Vec<u64> = sg
                    .cost_batch(g, &batch, threads)
                    .iter()
                    .map(|c| c.to_bits())
                    .collect();
                let want: Vec<u64> = g.cost_batch(&batch).iter().map(|c| c.to_bits()).collect();
                assert_eq!(got, want);
                assert_eq!(
                    sg.cost_replicas(g, &rp, threads).to_bits(),
                    g.cost_replicas(&rp).to_bits()
                );
            }
        }
        assert!(ShardedGraph::build(g, 2)
            .cost_batch(g, &PlacementBatch::new(5, 3), 2)
            .is_empty());
    }
}
