//! Sharded view of the correlation graph for million-object instances.
//!
//! [`ShardedGraph`] splits the problem's one
//! [`crate::graph::CorrelationGraph`] into contiguous [`EdgeId`] slices:
//! of `S` shards over `m` edges, shard `s` folds the edges
//! `[s·⌈m/S⌉, (s+1)·⌈m/S⌉)` of the graph it is handed. It keeps only its
//! shard count, and copies no rows and no edge columns. The bulk folds
//! (`cost`, `cost_batch`, `cost_replicas`) run each slice through the
//! graph's range folds on `cca-par` workers and add the per-shard
//! partials in shard-index order from `-0.0`.
//!
//! Every edge weight is an exact multiple of the graph's quantum, so
//! every sum is exact and the results are the flat folds' bits for every
//! shard count and every `threads` value (DESIGN.md §11).

use crate::graph::{CorrelationGraph, EdgeId, PlacementBatch};
use crate::placement::Placement;
use crate::replica::ReplicaPlacement;

/// A split of a [`CorrelationGraph`]'s edge list into contiguous slices
/// (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedGraph {
    shard_count: usize,
}

impl ShardedGraph {
    /// `shard_count` slices of `graph`'s edges, the count clamped to
    /// `[1, max(num_objects, 1)]`. Past the edge count, trailing slices
    /// are empty.
    #[must_use]
    pub fn new(graph: &CorrelationGraph, shard_count: usize) -> ShardedGraph {
        ShardedGraph {
            shard_count: shard_count.clamp(1, graph.num_objects().max(1)),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Resident size of the view in bytes: its shard count.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        size_of::<ShardedGraph>()
    }

    /// Runs `fold` over each shard's slice of `graph` on up to `threads`
    /// `cca-par` workers and returns the partials in shard-index order,
    /// whichever worker produced them.
    fn partials<T: Send>(
        &self,
        graph: &CorrelationGraph,
        threads: usize,
        fold: impl Fn(std::ops::Range<EdgeId>) -> T + Sync,
    ) -> Vec<T> {
        let m = graph.num_edges();
        let per = m.div_ceil(self.shard_count);
        let edge = |e: usize| EdgeId(e.min(m) as u32);
        cca_par::par_map_indexed(threads, self.shard_count, |s| {
            fold(edge(s * per)..edge((s + 1) * per))
        })
    }

    /// The CCA objective of `placement` on `graph`: each shard folds its
    /// slice in [`EdgeId`] order from `-0.0`, and the partials are added
    /// in shard order from `-0.0`. Bit-identical to
    /// [`CorrelationGraph::cost`] for every shard and thread count.
    ///
    /// # Panics
    ///
    /// Panics if the placement covers fewer objects than the graph.
    #[must_use]
    pub fn cost(&self, graph: &CorrelationGraph, placement: &Placement, threads: usize) -> f64 {
        let partials = self.partials(graph, threads, |edges| graph.cost_over(edges, placement));
        partials.into_iter().sum()
    }

    /// [`CorrelationGraph::cost_batch`] per shard, the partials of each
    /// column added in shard order from `-0.0`. An empty batch yields an
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
        for partial in self.partials(graph, threads, |edges| graph.cost_batch_over(edges, batch)) {
            for (t, p) in totals.iter_mut().zip(partial) {
                *t += p;
            }
        }
        totals
    }

    /// [`CorrelationGraph::cost_replicas`] per shard, reduced as
    /// [`ShardedGraph::cost`].
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
        let partials = self.partials(graph, threads, |edges| graph.cost_replicas_over(edges, rp));
        partials.into_iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::CcaProblem;

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
        let g = p.graph();
        // Six edges in three shards: shard s folds the slice [2s, 2s + 2),
        // so adding the three slice folds in order is the sharded fold.
        let sg = ShardedGraph::new(g, 3);
        let pl = Placement::new(vec![0, 1, 2, 0, 1], 3);
        let slices = (0..3)
            .map(|s| g.cost_over(EdgeId(2 * s)..EdgeId(2 * s + 2), &pl))
            .fold(-0.0, |total, p| total + p);
        assert_eq!(sg.cost(g, &pl, 2).to_bits(), slices.to_bits());
        assert_eq!(
            ShardedGraph::new(g, 1).cost(g, &pl, 2).to_bits(),
            g.cost_over(g.all_edges(), &pl).to_bits()
        );
    }

    #[test]
    fn shard_count_clamps_and_trailing_shards_may_be_empty() {
        let p = problem();
        let g = p.graph();
        // 64 requested shards clamp to the 5 objects, 0 to one shard.
        assert_eq!(ShardedGraph::new(g, 64).shard_count(), 5);
        assert_eq!(ShardedGraph::new(g, 0).shard_count(), 1);
        // Five shards take slices of two of the six edges: the last two
        // are empty and add the `-0.0` identity.
        let pl = Placement::new(vec![0, 1, 2, 0, 1], 3);
        let five = ShardedGraph::new(g, 5);
        assert_eq!(five.cost(g, &pl, 1).to_bits(), g.cost(&pl).to_bits());
        let colocated = Placement::new(vec![0; 5], 3);
        assert_eq!(five.cost(g, &colocated, 2).to_bits(), (-0.0f64).to_bits());
        // An edgeless graph still folds one (empty) shard to `-0.0`.
        let g0 = CorrelationGraph::build(0, &[]);
        let empty = ShardedGraph::new(&g0, 4);
        assert_eq!(empty.shard_count(), 1);
        assert!(empty.memory_bytes() > 0);
        assert_eq!(
            empty.cost(&g0, &Placement::new(Vec::new(), 1), 1).to_bits(),
            (-0.0f64).to_bits()
        );
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
            let sg = ShardedGraph::new(g, shards);
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
        assert!(ShardedGraph::new(g, 2)
            .cost_batch(g, &PlacementBatch::new(5, 3), 2)
            .is_empty());
    }
}
