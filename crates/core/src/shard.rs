//! Range-sharded view of the correlation graph for million-object
//! instances.
//!
//! [`ShardedGraph`] partitions the CSR of [`crate::graph::CorrelationGraph`]
//! by *object range*: shard `s` owns the contiguous row block
//! `[s·rows_per_shard, (s+1)·rows_per_shard)` and the edge columns whose
//! **smaller endpoint** falls in that block. Shards are built in parallel
//! on `cca-par` workers and bulk queries (`cost`, `cost_batch`) run
//! shard-parallel with per-shard partials reduced **in shard-index
//! order** — the same determinism recipe as
//! [`crate::graph::CorrelationGraph::cost_chunked`], so every result is
//! identical for every `threads` value.
//!
//! Bit-compatibility with the flat CSR (DESIGN.md §11):
//!
//! - `shard_count = 1` puts every edge in shard 0 in [`crate::graph::EdgeId`]
//!   order, so `cost`/`cost_batch` fold exactly the flat serial sequence
//!   and are **bit-identical** to the flat walk. Trailing empty shards
//!   contribute the `-0.0` reduce identity (`-0.0 + x` is bitwise `x`
//!   for every `x` the fold can produce), so they never perturb this.
//! - `move_delta`/`move_delta_batch` walk the owning shard's row, which
//!   replicates the flat CSR row content in the same pair-scan order —
//!   **bit-identical for any shard count**.
//! - For `shard_count > 1`, `cost`/`cost_batch` are a different
//!   associativity of the same exact per-edge terms; on dyadic-weight
//!   instances (the generators and benches) every addition is exact and
//!   the bits still match the flat walk, which the shard-invariance
//!   suite asserts.

use crate::graph::{
    batch_edge_walk, check_csr_bounds, edge_cost_fold, replica_row_delta, replica_row_deltas,
    InterleavedRows, PlacementBatch,
};
use crate::placement::Placement;
use crate::problem::{ObjectId, Pair, ProblemError};
use crate::replica::ReplicaPlacement;

/// One contiguous row block of the sharded CSR plus the edge columns it
/// owns (edges whose smaller endpoint lies in the block), both in the
/// same scan orders as the flat CSR.
#[derive(Debug, Clone)]
struct Shard {
    /// First object row owned by this shard (inclusive).
    row_start: usize,
    /// Smaller endpoints of owned edges, in pair-scan ([`crate::graph::EdgeId`]) order.
    edge_a: Vec<ObjectId>,
    /// Larger endpoints of owned edges, aligned with `edge_a`.
    edge_b: Vec<ObjectId>,
    /// Objective weights `r·w` of owned edges, aligned with `edge_a`.
    edge_weight: Vec<f64>,
    /// Local CSR row offsets: row `i` of the shard (object
    /// `row_start + i`) spans `nbr_*[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Neighbour ids per local row, in pair-scan order — identical
    /// content and order to the flat CSR row.
    nbr_ids: Vec<ObjectId>,
    /// Neighbour weights aligned with `nbr_ids`.
    nbr_weights: Vec<f64>,
}

impl Shard {
    /// Resident bytes of this shard's columns and rows.
    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.edge_a.len() * size_of::<ObjectId>()
            + self.edge_b.len() * size_of::<ObjectId>()
            + self.edge_weight.len() * size_of::<f64>()
            + self.offsets.len() * size_of::<u32>()
            + self.nbr_ids.len() * size_of::<ObjectId>()
            + self.nbr_weights.len() * size_of::<f64>()
    }

    /// Neighbours of global object `i` (which this shard must own) as
    /// `(neighbour, weight)`, in pair-scan order — the flat
    /// [`crate::graph::CorrelationGraph::neighbors`] sequence.
    fn neighbors(&self, i: ObjectId) -> impl Iterator<Item = (ObjectId, f64)> + '_ {
        let (ids, weights) = self.row(i);
        ids.iter().copied().zip(weights.iter().copied())
    }

    /// Row of global object `i` (which this shard must own) as aligned
    /// `(neighbour ids, weights)` slices — the flat CSR row.
    fn row(&self, i: ObjectId) -> (&[ObjectId], &[f64]) {
        let local = i.index() - self.row_start;
        let (s, t) = (
            self.offsets[local] as usize,
            self.offsets[local + 1] as usize,
        );
        (&self.nbr_ids[s..t], &self.nbr_weights[s..t])
    }
}

/// Range-sharded CSR over the same pair list as
/// [`crate::graph::CorrelationGraph`], built shard-parallel and queried
/// shard-parallel with an index-ordered reduce (see the module docs for
/// the exact bit contract).
#[derive(Debug, Clone)]
pub struct ShardedGraph {
    num_objects: usize,
    num_edges: usize,
    rows_per_shard: usize,
    /// `true` when every edge weight is strictly positive — gates the
    /// branchless batched kernel exactly like the flat CSR's flag.
    positive_weights: bool,
    shards: Vec<Shard>,
}

impl ShardedGraph {
    /// Builds the sharded view over `pairs` for `num_objects` objects,
    /// constructing the `shard_count` shards (clamped to
    /// `[1, max(num_objects, 1)]`) in parallel on up to `threads`
    /// `cca-par` workers. The result is a pure function of
    /// `(num_objects, pairs, shard_count)` — `threads` only changes how
    /// fast it is built.
    ///
    /// # Panics
    ///
    /// Panics if a pair references an object `>= num_objects`, or if the
    /// instance overflows the `u32` CSR indexing — use
    /// [`ShardedGraph::try_build`] to get a
    /// [`ProblemError::GraphTooLarge`] instead.
    #[must_use]
    pub fn build(
        num_objects: usize,
        pairs: &[Pair],
        shard_count: usize,
        threads: usize,
    ) -> ShardedGraph {
        ShardedGraph::try_build(num_objects, pairs, shard_count, threads)
            .unwrap_or_else(|e| panic!("sharded graph build failed: {e}"))
    }

    /// Fallible [`ShardedGraph::build`], with the same size guard as
    /// [`crate::graph::CorrelationGraph::try_build`]: the bound is checked before any
    /// allocation, and endpoints are validated **before** sharding (the
    /// per-shard filtered scans would otherwise silently drop an
    /// out-of-range edge instead of failing).
    ///
    /// # Panics
    ///
    /// Panics if a pair references an object `>= num_objects`.
    ///
    /// # Errors
    ///
    /// [`ProblemError::GraphTooLarge`] when the instance exceeds the
    /// `u32` CSR limits (more than `u32::MAX / 2` pairs or `u32::MAX`
    /// objects).
    pub fn try_build(
        num_objects: usize,
        pairs: &[Pair],
        shard_count: usize,
        threads: usize,
    ) -> Result<ShardedGraph, ProblemError> {
        check_csr_bounds(num_objects, pairs.len())?;
        for pair in pairs {
            assert!(
                pair.a.index() < num_objects && pair.b.index() < num_objects,
                "pair ({}, {}) out of range for {num_objects} objects",
                pair.a,
                pair.b
            );
        }
        let shard_count = shard_count.clamp(1, num_objects.max(1));
        // Ceil split so exactly `shard_count` blocks cover every row; the
        // max(1) keeps the `shard_of` division defined on empty graphs.
        let rows_per_shard = num_objects.div_ceil(shard_count).max(1);
        let shards = cca_par::par_map_indexed(threads, shard_count, |s| {
            let row_start = (s * rows_per_shard).min(num_objects);
            let row_end = ((s + 1) * rows_per_shard).min(num_objects);
            build_shard(pairs, row_start, row_end, rows_per_shard, s)
        });
        let positive_weights = pairs.iter().all(|p| p.weight() > 0.0);
        Ok(ShardedGraph {
            num_objects,
            num_edges: pairs.len(),
            rows_per_shard,
            positive_weights,
            shards,
        })
    }

    /// Number of objects (global CSR rows).
    #[must_use]
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Number of edges `|E|` across all shards.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.num_edges
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

    /// Approximate resident size of the sharded view in bytes — the
    /// memory-model input for the million-object accounting in
    /// `BENCH_shard.json`.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.shards.iter().map(Shard::memory_bytes).sum()
    }

    /// The shard index owning object `i`'s row.
    fn shard_of(&self, i: ObjectId) -> usize {
        i.index() / self.rows_per_shard
    }

    /// The CCA objective of `placement`: per-shard partials (each the
    /// serial [`edge_cost_fold`] over the shard's owned edges in
    /// pair-scan order) computed on up to `threads` workers, reduced in
    /// shard-index order from the `-0.0` identity. Identical for every
    /// `threads` value; bit-identical to [`crate::graph::CorrelationGraph::cost`] when
    /// `shard_count() == 1` (and on dyadic-weight instances for any
    /// shard count).
    ///
    /// # Panics
    ///
    /// Panics if the placement covers fewer objects than the graph.
    #[must_use]
    pub fn cost(&self, placement: &Placement, threads: usize) -> f64 {
        let partials = cca_par::par_map_indexed(threads, self.shards.len(), |s| {
            let sh = &self.shards[s];
            edge_cost_fold(&sh.edge_a, &sh.edge_b, &sh.edge_weight, placement)
        });
        let mut total = -0.0;
        for p in partials {
            total += p;
        }
        total
    }

    /// Scores every candidate of `batch` shard-parallel: each shard runs
    /// the shared [`batch_edge_walk`] over its owned edge columns, and
    /// the per-shard per-candidate partials reduce in shard-index order
    /// from the `-0.0` identity. Identical for every `threads` value;
    /// column `c` is bit-identical to
    /// [`crate::graph::CorrelationGraph::cost_batch`]'s when `shard_count() == 1` (and
    /// on dyadic-weight instances for any shard count). An empty batch
    /// yields an empty vector.
    ///
    /// # Panics
    ///
    /// Panics if the batch covers fewer objects than the graph.
    #[must_use]
    pub fn cost_batch(&self, batch: &PlacementBatch, threads: usize) -> Vec<f64> {
        let k = batch.width();
        if k == 0 {
            return Vec::new();
        }
        // The interleave is built once (lazily) and shared read-only by
        // every shard walk.
        let rows = batch.interleaved();
        let partials = cca_par::par_map_indexed(threads, self.shards.len(), |s| {
            let sh = &self.shards[s];
            let mut acc = vec![-0.0f64; k];
            match rows {
                InterleavedRows::Narrow(r) => batch_edge_walk(
                    &sh.edge_a,
                    &sh.edge_b,
                    &sh.edge_weight,
                    self.positive_weights,
                    r,
                    k,
                    &mut acc,
                ),
                InterleavedRows::Wide(r) => batch_edge_walk(
                    &sh.edge_a,
                    &sh.edge_b,
                    &sh.edge_weight,
                    self.positive_weights,
                    r,
                    k,
                    &mut acc,
                ),
            }
            acc
        });
        let mut totals = vec![-0.0f64; k];
        for partial in partials {
            for (t, p) in totals.iter_mut().zip(partial) {
                *t += p;
            }
        }
        totals
    }

    /// Communication-cost change of moving `i` to `target`, walking the
    /// owning shard's row. The shard row replicates the flat CSR row
    /// content and order exactly, so this is **bit-identical** to
    /// [`crate::graph::CorrelationGraph::move_delta`] for any shard count.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn move_delta(&self, placement: &Placement, i: ObjectId, target: usize) -> f64 {
        let src = placement.node_of(i);
        if src == target {
            return 0.0;
        }
        let mut delta = 0.0;
        for (other, w) in self.shards[self.shard_of(i)].neighbors(i) {
            let on = placement.node_of(other);
            if on == src {
                delta += w;
            } else if on == target {
                delta -= w;
            }
        }
        delta
    }

    /// [`ShardedGraph::move_delta`] for every target in `targets` in a
    /// single walk of the owning shard's row — entry `t` is
    /// **bit-identical** to [`crate::graph::CorrelationGraph::move_delta_batch`]'s for
    /// any shard count.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn move_delta_batch(
        &self,
        placement: &Placement,
        i: ObjectId,
        targets: &[usize],
    ) -> Vec<f64> {
        let src = placement.node_of(i);
        let mut deltas = vec![0.0f64; targets.len()];
        if targets.iter().all(|&t| t == src) {
            return deltas;
        }
        for (other, w) in self.shards[self.shard_of(i)].neighbors(i) {
            let on = placement.node_of(other);
            for (d, &t) in deltas.iter_mut().zip(targets) {
                if t == src {
                    continue;
                }
                if on == src {
                    *d += w;
                } else if on == t {
                    *d -= w;
                }
            }
        }
        deltas
    }

    /// Replica-aware cost (see
    /// [`crate::graph::CorrelationGraph::cost_replicas`]): per-shard edge
    /// folds with the min-over-replica-choices split test, partials
    /// reduced in shard (index) order from the `-0.0` identity — the same
    /// reduction shape as [`ShardedGraph::cost`], so the result is
    /// identical for every `threads` value, and with `r = 1` it is
    /// **bit-identical** to `cost(rp.primary(), threads)` (structural
    /// fast path).
    ///
    /// # Panics
    ///
    /// Panics if the placement covers fewer objects than the graph.
    #[must_use]
    pub fn cost_replicas(&self, rp: &ReplicaPlacement, threads: usize) -> f64 {
        if rp.replicas() == 1 {
            return self.cost(rp.primary(), threads);
        }
        let partials = cca_par::par_map_indexed(threads, self.shards.len(), |s| {
            let sh = &self.shards[s];
            sh.edge_a
                .iter()
                .zip(&sh.edge_b)
                .zip(&sh.edge_weight)
                .filter(|&((&a, &b), _)| rp.split(a, b))
                .map(|(_, &w)| w)
                .sum::<f64>()
        });
        let mut total = -0.0;
        for p in partials {
            total += p;
        }
        total
    }

    /// Replica-aware move delta, walking the owning shard's row. The
    /// shard row replicates the flat CSR row content and order exactly,
    /// and both graphs run the same row kernel, so this is
    /// **bit-identical** to
    /// [`crate::graph::CorrelationGraph::replica_move_delta`] for any
    /// shard count.
    ///
    /// # Panics
    ///
    /// Panics if `i`, `j`, or `target` is out of range.
    #[must_use]
    pub fn replica_move_delta(
        &self,
        rp: &ReplicaPlacement,
        i: ObjectId,
        j: usize,
        target: usize,
    ) -> f64 {
        let (ids, weights) = self.shards[self.shard_of(i)].row(i);
        replica_row_delta(ids, weights, rp, i, j, target)
    }

    /// Every-target replica move deltas from one walk of the owning
    /// shard's row — bit-identical to
    /// [`crate::graph::CorrelationGraph::replica_move_deltas`] for any
    /// shard count, for the same reason as
    /// [`ShardedGraph::replica_move_delta`].
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range, or if `deltas.len()` is not
    /// the node count.
    pub(crate) fn replica_move_deltas(
        &self,
        rp: &ReplicaPlacement,
        i: ObjectId,
        j: usize,
        deltas: &mut [f64],
    ) {
        let (ids, weights) = self.shards[self.shard_of(i)].row(i);
        replica_row_deltas(ids, weights, rp, i, j, deltas);
    }
}

/// Builds shard `s` covering rows `[row_start, row_end)` by a single
/// filtered scan of the full pair list: owned edge columns (smaller
/// endpoint in range) append in pair-scan order, and both-endpoint row
/// entries append in pair-scan order — the exact flat-CSR row content.
fn build_shard(
    pairs: &[Pair],
    row_start: usize,
    row_end: usize,
    rows_per_shard: usize,
    s: usize,
) -> Shard {
    let in_range = |i: usize| i / rows_per_shard == s;
    let num_rows = row_end - row_start;
    let mut edge_a = Vec::new();
    let mut edge_b = Vec::new();
    let mut edge_weight = Vec::new();
    let mut degree = vec![0u32; num_rows];
    for pair in pairs {
        let (ai, bi) = (pair.a.index(), pair.b.index());
        if in_range(ai.min(bi)) {
            edge_a.push(pair.a);
            edge_b.push(pair.b);
            edge_weight.push(pair.weight());
        }
        // Safe u32 arithmetic: `check_csr_bounds` capped the pair count
        // at `u32::MAX / 2`, so a row degree tops out at `2·m ≤ u32::MAX`.
        if in_range(ai) {
            degree[ai - row_start] += 1;
        }
        if in_range(bi) {
            degree[bi - row_start] += 1;
        }
    }
    let mut offsets = Vec::with_capacity(num_rows + 1);
    let mut total = 0u32;
    offsets.push(0);
    for &d in &degree {
        total += d;
        offsets.push(total);
    }
    let mut cursor: Vec<u32> = offsets[..num_rows].to_vec();
    let mut nbr_ids = vec![ObjectId(0); total as usize];
    let mut nbr_weights = vec![0.0f64; total as usize];
    for pair in pairs {
        let (ai, bi, w) = (pair.a.index(), pair.b.index(), pair.weight());
        if in_range(ai) {
            let slot = cursor[ai - row_start] as usize;
            nbr_ids[slot] = pair.b;
            nbr_weights[slot] = w;
            cursor[ai - row_start] += 1;
        }
        if in_range(bi) {
            let slot = cursor[bi - row_start] as usize;
            nbr_ids[slot] = pair.a;
            nbr_weights[slot] = w;
            cursor[bi - row_start] += 1;
        }
    }
    Shard {
        row_start,
        edge_a,
        edge_b,
        edge_weight,
        offsets,
        nbr_ids,
        nbr_weights,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CorrelationGraph;

    fn pairs() -> Vec<Pair> {
        // Dyadic weights: correlations in eighths, costs integral.
        [
            (0u32, 1u32, 8, 16.0),
            (0, 2, 4, 4.0),
            (1, 3, 6, 8.0),
            (2, 3, 2, 2.0),
            (3, 4, 7, 16.0),
            (1, 4, 1, 1.0),
        ]
        .iter()
        .map(|&(a, b, eighths, cost)| Pair {
            a: ObjectId(a),
            b: ObjectId(b),
            correlation: f64::from(eighths) / 8.0,
            comm_cost: cost,
        })
        .collect()
    }

    fn placement() -> Placement {
        Placement::new(vec![0, 1, 0, 1, 2], 3)
    }

    #[test]
    fn single_shard_bit_equals_flat() {
        let ps = pairs();
        let flat = CorrelationGraph::build(5, &ps);
        let sharded = ShardedGraph::build(5, &ps, 1, 1);
        let p = placement();
        assert_eq!(
            sharded.cost(&p, 1).to_bits(),
            flat.cost(&p).to_bits(),
            "shard_count=1 must replicate the flat serial fold"
        );
    }

    #[test]
    fn every_shard_count_matches_on_dyadic_weights() {
        let ps = pairs();
        let flat = CorrelationGraph::build(5, &ps);
        let p = placement();
        for shard_count in [1, 2, 3, 5, 7, 64] {
            for threads in [1, 2, 4] {
                let sharded = ShardedGraph::build(5, &ps, shard_count, threads);
                assert_eq!(sharded.cost(&p, threads).to_bits(), flat.cost(&p).to_bits());
                for i in 0..5 {
                    let i = ObjectId(i);
                    for target in 0..3 {
                        assert_eq!(
                            sharded.move_delta(&p, i, target).to_bits(),
                            flat.move_delta(&p, i, target).to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shard_count_clamps_and_empty_shards_are_identity() {
        let ps = pairs();
        // 64 requested shards clamp to num_objects = 5.
        let sharded = ShardedGraph::build(5, &ps, 64, 2);
        assert_eq!(sharded.shard_count(), 5);
        assert_eq!(sharded.num_edges(), ps.len());
        // Zero-object graph still builds one (empty) shard.
        let empty = ShardedGraph::build(0, &[], 4, 1);
        assert_eq!(empty.shard_count(), 1);
        assert_eq!(empty.cost(&Placement::new(Vec::new(), 1), 1).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn cost_batch_matches_flat_per_column() {
        let ps = pairs();
        let flat = CorrelationGraph::build(5, &ps);
        let mut batch = PlacementBatch::new(5, 3);
        batch.push(&placement());
        batch.push(&Placement::new(vec![0, 0, 0, 0, 0], 3));
        batch.push(&Placement::new(vec![2, 1, 0, 1, 2], 3));
        let want = flat.cost_batch(&batch);
        for shard_count in [1, 2, 5] {
            let sharded = ShardedGraph::build(5, &ps, shard_count, 1);
            for threads in [1, 3] {
                let got = sharded.cost_batch(&batch, threads);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits());
                }
            }
        }
        assert!(ShardedGraph::build(5, &ps, 2, 1)
            .cost_batch(&PlacementBatch::new(5, 3), 1)
            .is_empty());
    }

    #[test]
    fn too_large_instance_errors_before_allocating() {
        let err = ShardedGraph::try_build(u32::MAX as usize + 1, &[], 4, 1).unwrap_err();
        assert!(matches!(err, ProblemError::GraphTooLarge { .. }));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_panics_instead_of_dropping() {
        let ps = pairs();
        // 5 objects referenced but only 3 declared: must panic, not
        // silently drop the out-of-range edges from every shard.
        let _ = ShardedGraph::build(3, &ps, 2, 1);
    }
}
