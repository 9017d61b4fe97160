//! Canonical sparse correlation graph: CSR adjacency over the pair list.
//!
//! The CCA objective `Σ_{f(i)≠f(j)} r(i,j)·w(i,j)` is a sparse graph
//! quantity, yet historically every layer re-derived it by scanning the
//! flat [`crate::CcaProblem::pairs`] list end-to-end — O(|E|) per cost
//! query and per candidate move. [`CorrelationGraph`] is the one shared
//! adjacency view, built once inside `CcaProblem::build` (and rebuilt by
//! `restrict_to` / `prune_pairs`), that every solve layer walks instead:
//!
//! * **Edge list in storage order.** [`EdgeId`] `e` maps back to
//!   `problem.pairs()[e]`. The pair list is *never* re-sorted here:
//!   `restrict_to` yields pairs in keep-list order and `prune_pairs`
//!   leaves them weight-sorted, and both orders are load-bearing (LP
//!   column order). See DESIGN.md §9 for the full iteration-order
//!   contract.
//! * **Exact weights.** Each edge weight is its pair's `r·w` snapped once,
//!   at build, to an integer multiple of the graph's quantum `q`, a power
//!   of two chosen from the total weight (see
//!   [`CorrelationGraph::try_build`]). Every weight, every subset sum and
//!   every move delta is then an exact `f64`, so a fold returns the same
//!   bits whichever order, shard or thread adds its edges.
//! * **CSR rows in pair-scan order.** Row `i` lists the neighbours of `i`
//!   in the order a single scan of the pair list discovers them — exactly
//!   the push order of the per-module `adjacency()` vectors this replaces
//!   — so O(deg) move deltas accumulate in the historic order too.
//! * **Precomputed orderings.** [`CorrelationGraph::edges_by_correlation`]
//!   (greedy §4.1) and [`CorrelationGraph::edges_by_weight`] (importance
//!   ranking §4.2, audit) are total orders (the `(a, b)` tie-break is
//!   unique per edge), so they equal what a per-call `sort_unstable` of
//!   pair indices produced, for any starting permutation.
//! * **Edge folds over one [`EdgeId`] range.** The cost folds (`cost`,
//!   `cost_batch`, `cost_replicas`) are each written once, over a range of
//!   the edge list. The flat graph is the whole range; a shard of
//!   [`crate::shard::ShardedGraph`] is a contiguous slice of it.

use crate::placement::Placement;
use crate::problem::{ObjectId, Pair, ProblemError};
use crate::replica::ReplicaPlacement;
use std::ops::Range;

/// Identifier of an edge: the index of its [`Pair`] in
/// [`crate::CcaProblem::pairs`] — this back-map is a stable, documented
/// contract (LP `z`-columns and cut rows are keyed by it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Index form of the identifier.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One edge of the correlation graph: a pair plus its objective weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// The edge's id (index into the problem's pair list).
    pub id: EdgeId,
    /// Smaller-id endpoint.
    pub a: ObjectId,
    /// Larger-id endpoint.
    pub b: ObjectId,
    /// Objective weight: `r(a,b)·w(a,b)` snapped to the graph's quantum.
    pub weight: f64,
}

/// CSR (compressed-sparse-row) adjacency view of a problem's pair list.
///
/// Rows cover every object; row `i` holds `(neighbour, weight)` entries
/// in pair-scan order. The edge arrays are structure-of-arrays in
/// [`EdgeId`] order, i.e. pair-storage order.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationGraph {
    num_objects: usize,
    // Every weight below is an integer multiple of this power of two.
    quantum: f64,
    // Edge list (EdgeId order == pair storage order).
    edge_a: Vec<ObjectId>,
    edge_b: Vec<ObjectId>,
    edge_weight: Vec<f64>,
    // CSR rows (per-row entries in pair-scan order).
    offsets: Vec<u32>,
    nbr_ids: Vec<ObjectId>,
    nbr_weights: Vec<f64>,
    // Total orders over EdgeId (unique (a, b) tie-break).
    by_correlation: Vec<EdgeId>,
    by_weight: Vec<EdgeId>,
}

/// A batch of k candidate placements laid out structure-of-arrays: one
/// `Vec<u32>` assignment column per candidate, all over the same object
/// universe and node count.
///
/// This is the input to the batched evaluation kernel
/// ([`CorrelationGraph::cost_batch`]): one walk of the CSR edge columns
/// scores every candidate, reading each edge's endpoints and weight once
/// instead of once per candidate. See DESIGN.md §10 for the
/// batched-evaluation contract.
#[derive(Debug, Clone)]
pub struct PlacementBatch {
    num_objects: usize,
    num_nodes: usize,
    columns: Vec<Vec<u32>>,
    // Lazily built object-major interleave of the columns (see
    // `interleaved`), cached so a batch scored repeatedly pays the
    // transpose once. Invalidated by `push`; excluded from equality.
    rows: std::sync::OnceLock<InterleavedRows>,
}

impl PartialEq for PlacementBatch {
    fn eq(&self, other: &PlacementBatch) -> bool {
        self.num_objects == other.num_objects
            && self.num_nodes == other.num_nodes
            && self.columns == other.columns
    }
}

impl Eq for PlacementBatch {}

impl PlacementBatch {
    /// An empty batch over `num_objects` objects and `num_nodes` nodes.
    #[must_use]
    pub fn new(num_objects: usize, num_nodes: usize) -> PlacementBatch {
        PlacementBatch {
            num_objects,
            num_nodes,
            columns: Vec::new(),
            rows: std::sync::OnceLock::new(),
        }
    }

    /// Builds a batch from candidate placements, in slice order.
    ///
    /// # Panics
    ///
    /// Panics if `placements` is empty (the object/node universe would be
    /// undefined) or if the candidates disagree on object or node counts.
    #[must_use]
    pub fn from_placements(placements: &[Placement]) -> PlacementBatch {
        let first = placements
            .first()
            .expect("a batch needs at least one placement to fix its dimensions");
        let mut batch = PlacementBatch::new(first.num_objects(), first.num_nodes());
        for p in placements {
            batch.push(p);
        }
        batch
    }

    /// Appends `placement` as the next candidate column.
    ///
    /// # Panics
    ///
    /// Panics if `placement` disagrees with the batch's object or node
    /// counts.
    pub fn push(&mut self, placement: &Placement) {
        assert_eq!(
            placement.num_objects(),
            self.num_objects,
            "batch candidates must cover the same objects"
        );
        assert_eq!(
            placement.num_nodes(),
            self.num_nodes,
            "batch candidates must share the node count"
        );
        self.columns.push(placement.as_slice().to_vec());
        self.rows.take();
    }

    /// Number of candidates k in the batch.
    #[must_use]
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// `true` when the batch holds no candidates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Number of objects each candidate covers.
    #[must_use]
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Number of nodes each candidate places onto.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The assignment column of candidate `c` (`column[i]` is the node of
    /// object `i`).
    ///
    /// # Panics
    ///
    /// Panics if `c >= width()`.
    #[must_use]
    pub fn column(&self, c: usize) -> &[u32] {
        &self.columns[c]
    }

    /// Candidate `c` rebuilt as an owned [`Placement`].
    ///
    /// # Panics
    ///
    /// Panics if `c >= width()`.
    #[must_use]
    pub fn placement(&self, c: usize) -> Placement {
        Placement::new(self.columns[c].clone(), self.num_nodes)
    }

    /// Object-major interleaved copy of the columns: entry `i * k + c` is
    /// candidate `c`'s node for object `i`, so an edge walk touches two
    /// contiguous k-wide rows per edge instead of k scattered columns.
    /// Ids are stored as floats so the kernel's compare-and-select runs
    /// entirely in the floating domain — the inequality mask is born lane-
    /// width, with no integer-to-float mask widening on the baseline
    /// (SSE2) target. Node ids below `2^24` map to `f32` exactly (halving
    /// row traffic and keeping the random row reads cache-resident);
    /// larger ids fall back to `f64`, which is exact for every `u32`.
    /// Either map is injective, so lane equality — all the kernel reads —
    /// is unchanged. Pure layout either way: the per-candidate fold order
    /// is untouched. Built on first use and cached until the next `push`,
    /// so re-scoring the same batch pays the transpose once.
    fn interleaved(&self) -> &InterleavedRows {
        self.rows.get_or_init(|| {
            if self.num_nodes <= 1 << 24 {
                InterleavedRows::Narrow(self.transpose(|node| node as f32))
            } else {
                InterleavedRows::Wide(self.transpose(f64::from))
            }
        })
    }

    /// The object-major transpose behind [`PlacementBatch::interleaved`]:
    /// objects outer, candidates inner, so writes are strictly sequential
    /// and reads stream k columns in parallel.
    fn transpose<T: Copy + Default>(&self, map: impl Fn(u32) -> T) -> Vec<T> {
        let k = self.columns.len();
        let mut rows = vec![T::default(); self.num_objects * k];
        for (i, stripe) in rows.chunks_exact_mut(k.max(1)).enumerate() {
            for (slot, col) in stripe.iter_mut().zip(&self.columns) {
                *slot = map(col[i]);
            }
        }
        rows
    }
}

/// The cached interleaved stripe store of a [`PlacementBatch`]: node ids
/// narrow to `f32` whenever the node count keeps that exact (`< 2^24`),
/// falling back to `f64` (exact for every `u32` id).
#[derive(Debug, Clone)]
enum InterleavedRows {
    Narrow(Vec<f32>),
    Wide(Vec<f64>),
}

/// Validates that a CSR build over `num_pairs` pairs and `num_objects`
/// objects stays within `u32` indexing: object ids must fit `u32`
/// ([`ObjectId`] is `u32`-backed) and the `2·m` half-edge slots must fit
/// the `u32` offset/cursor arithmetic (which also keeps every
/// [`EdgeId`]`(e as u32)` cast exact). Checked *before* any allocation so
/// an oversized instance errors instead of silently wrapping — or OOMing
/// on the degree array.
pub(crate) fn check_csr_bounds(num_objects: usize, num_pairs: usize) -> Result<(), ProblemError> {
    if num_objects > u32::MAX as usize || num_pairs > (u32::MAX / 2) as usize {
        return Err(ProblemError::GraphTooLarge {
            objects: num_objects,
            pairs: num_pairs,
        });
    }
    Ok(())
}

/// The select-subtract walk at compile-time width `K`:
/// `K` independent accumulator lanes held in a local array (register-
/// resident for the widths [`CorrelationGraph::cost_batch_over`]
/// dispatches), unrolled per edge. The lanes continue from, and are
/// written back to, the first `K` entries of `acc`.
fn walk_const<const K: usize, T: Copy + PartialEq>(
    edge_a: &[ObjectId],
    edge_b: &[ObjectId],
    edge_weight: &[f64],
    rows: &[T],
    acc: &mut [f64],
) {
    let mut local: [f64; K] = std::array::from_fn(|j| acc[j]);
    let edges = edge_a.iter().zip(edge_b).zip(edge_weight);
    for ((&a, &b), &w) in edges {
        let ra = &rows[a.index() * K..][..K];
        let rb = &rows[b.index() * K..][..K];
        // Two passes — compare all K lanes, then select-add — so the
        // compiler compares whole stripes at once instead of weaving
        // narrow element compares into the f64 adds.
        let mut split = [false; K];
        for j in 0..K {
            split[j] = ra[j] != rb[j];
        }
        for j in 0..K {
            local[j] -= if split[j] { -w } else { 0.0 };
        }
    }
    acc[..K].copy_from_slice(&local);
}

/// The select-subtract walk at runtime width `k`, in bounds-check-free
/// 4-lane tiles plus a remainder loop.
fn walk_dyn<T: Copy + PartialEq>(
    edge_a: &[ObjectId],
    edge_b: &[ObjectId],
    edge_weight: &[f64],
    rows: &[T],
    k: usize,
    acc: &mut [f64],
) {
    let acc = &mut acc[..k];
    let edges = edge_a.iter().zip(edge_b).zip(edge_weight);
    for ((&a, &b), &w) in edges {
        let ra = &rows[a.index() * k..][..k];
        let rb = &rows[b.index() * k..][..k];
        let tiles = acc
            .chunks_exact_mut(4)
            .zip(ra.chunks_exact(4))
            .zip(rb.chunks_exact(4));
        for ((av, xv), yv) in tiles {
            for j in 0..4 {
                av[j] -= if xv[j] != yv[j] { -w } else { 0.0 };
            }
        }
        let rest = k - k % 4;
        for ((s, &x), &y) in acc[rest..].iter_mut().zip(&ra[rest..]).zip(&rb[rest..]) {
            *s -= if x != y { -w } else { 0.0 };
        }
    }
}

/// The weight quantum of a pair list whose weights sum to `total`:
/// `2^(⌈log₂ total⌉ − 52)`, the exponent clamped to f64's normal range,
/// so `total ≤ 2^52·q`. Read from the bits, where `log2` could round.
fn quantum_for(total: f64) -> f64 {
    let bits = total.abs().to_bits();
    let floor_log2 = (bits >> 52) as i64 - 1023;
    let ceil_log2 = floor_log2 + i64::from(bits & ((1 << 52) - 1) != 0);
    f64::from_bits((((ceil_log2 - 52).clamp(-1022, 1023) + 1023) as u64) << 52)
}

impl CorrelationGraph {
    /// Builds the CSR view over `pairs` for `num_objects` objects.
    ///
    /// # Panics
    ///
    /// Panics if a pair references an object `>= num_objects` (the builder
    /// validates ids before this runs), or if [`CorrelationGraph::try_build`]
    /// returns an error.
    #[must_use]
    pub fn build(num_objects: usize, pairs: &[Pair]) -> CorrelationGraph {
        CorrelationGraph::try_build(num_objects, pairs)
            .unwrap_or_else(|e| panic!("correlation graph build failed: {e}"))
    }

    /// Fallible [`CorrelationGraph::build`].
    ///
    /// Edge `e`'s weight is `pairs[e].weight()` snapped to the nearest
    /// integer multiple of the quantum `q = 2^(⌈log₂ W⌉ − 52)`, where `W`
    /// is the pairs' total weight summed in storage order (the exponent
    /// clamped to f64's normal range). Then `W ≤ 2^52·q`, snapping adds
    /// at most `m·q/2` with `m < 2^31`, and so every subset sum of the
    /// snapped weights, in any order, is an exact multiple of `q` below
    /// `2^53·q`: an exact `f64`. Weights that already are multiples of `q`
    /// do not move.
    ///
    /// # Panics
    ///
    /// Panics if a pair references an object `>= num_objects` (the builder
    /// validates ids before this runs).
    ///
    /// # Errors
    ///
    /// [`ProblemError::GraphTooLarge`] when the instance would overflow the
    /// `u32` CSR offsets / [`EdgeId`] casts (more than `u32::MAX / 2`
    /// pairs, whose `2·m` half-edge slots would wrap the offset
    /// accumulator, or more than `u32::MAX` objects), checked before any
    /// allocation; [`ProblemError::Overflow`] when `W` is not finite.
    pub fn try_build(num_objects: usize, pairs: &[Pair]) -> Result<CorrelationGraph, ProblemError> {
        check_csr_bounds(num_objects, pairs.len())?;
        let total: f64 = pairs.iter().map(Pair::weight).sum();
        if !total.is_finite() {
            return Err(ProblemError::Overflow("total pair weight".into()));
        }
        Ok(CorrelationGraph::with_quantum(
            num_objects,
            pairs,
            quantum_for(total),
        ))
    }

    /// [`CorrelationGraph::try_build`] with a given quantum. `pairs` must be
    /// a subset of the pairs of the graph `quantum` came from: the
    /// subgraph then has its parent's weights, bit for bit, and its sums
    /// stay below the parent's bound.
    pub(crate) fn with_quantum(
        num_objects: usize,
        pairs: &[Pair],
        quantum: f64,
    ) -> CorrelationGraph {
        let m = pairs.len();
        let mut edge_a = Vec::with_capacity(m);
        let mut edge_b = Vec::with_capacity(m);
        let mut edge_weight = Vec::with_capacity(m);
        let mut degree = vec![0u32; num_objects];
        for pair in pairs {
            assert!(
                pair.a.index() < num_objects && pair.b.index() < num_objects,
                "pair ({}, {}) out of range for {num_objects} objects",
                pair.a,
                pair.b
            );
            edge_a.push(pair.a);
            edge_b.push(pair.b);
            edge_weight.push((pair.weight() / quantum).round() * quantum);
            degree[pair.a.index()] += 1;
            degree[pair.b.index()] += 1;
        }
        // Safe u32 arithmetic: `check_csr_bounds` capped the pair count at
        // `u32::MAX / 2`, so `total` tops out at `2·m ≤ u32::MAX` and every
        // `EdgeId(e as u32)` cast below is exact.
        let mut offsets = Vec::with_capacity(num_objects + 1);
        let mut total = 0u32;
        offsets.push(0);
        for &d in &degree {
            total += d;
            offsets.push(total);
        }
        // Fill rows by a single scan of the pair list, appending each edge
        // to both endpoint rows — the exact push order of the historic
        // per-module `adjacency()` vectors.
        let mut cursor: Vec<u32> = offsets[..num_objects].to_vec();
        let mut nbr_ids = vec![ObjectId(0); 2 * m];
        let mut nbr_weights = vec![0.0f64; 2 * m];
        for e in 0..m {
            let (a, b, w) = (edge_a[e], edge_b[e], edge_weight[e]);
            let slot = cursor[a.index()] as usize;
            nbr_ids[slot] = b;
            nbr_weights[slot] = w;
            cursor[a.index()] += 1;
            let slot = cursor[b.index()] as usize;
            nbr_ids[slot] = a;
            nbr_weights[slot] = w;
            cursor[b.index()] += 1;
        }
        // Descending correlation, ties by (a, b) — greedy §4.1 order.
        let mut by_correlation: Vec<EdgeId> = (0..m as u32).map(EdgeId).collect();
        by_correlation.sort_unstable_by(|&x, &y| {
            let (px, py) = (&pairs[x.index()], &pairs[y.index()]);
            py.correlation
                .partial_cmp(&px.correlation)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then((px.a, px.b).cmp(&(py.a, py.b)))
        });
        // Descending weight, ties by (a, b) — importance-ranking §4.2 and
        // audit order.
        let mut by_weight: Vec<EdgeId> = (0..m as u32).map(EdgeId).collect();
        by_weight.sort_unstable_by(|&x, &y| {
            edge_weight[y.index()]
                .partial_cmp(&edge_weight[x.index()])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    (edge_a[x.index()], edge_b[x.index()])
                        .cmp(&(edge_a[y.index()], edge_b[y.index()])),
                )
        });
        CorrelationGraph {
            num_objects,
            quantum,
            edge_a,
            edge_b,
            edge_weight,
            offsets,
            nbr_ids,
            nbr_weights,
            by_correlation,
            by_weight,
        }
    }

    /// Approximate resident size of the CSR view in bytes (edge columns,
    /// row arrays, precomputed orders) — the memory-model input for the
    /// million-object instance accounting in `BENCH_shard.json`.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.edge_a.len() * size_of::<ObjectId>()
            + self.edge_b.len() * size_of::<ObjectId>()
            + self.edge_weight.len() * size_of::<f64>()
            + self.offsets.len() * size_of::<u32>()
            + self.nbr_ids.len() * size_of::<ObjectId>()
            + self.nbr_weights.len() * size_of::<f64>()
            + self.by_correlation.len() * size_of::<EdgeId>()
            + self.by_weight.len() * size_of::<EdgeId>()
    }

    /// The weight quantum `q`: every edge weight is an integer multiple of
    /// it (see [`CorrelationGraph::try_build`]).
    #[must_use]
    pub fn quantum(&self) -> f64 {
        self.quantum
    }

    /// Number of objects (CSR rows).
    #[must_use]
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Number of edges `|E|`.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edge_weight.len()
    }

    /// Degree of object `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn degree(&self, i: ObjectId) -> usize {
        (self.offsets[i.index() + 1] - self.offsets[i.index()]) as usize
    }

    /// The edge with id `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn edge(&self, e: EdgeId) -> Edge {
        Edge {
            id: e,
            a: self.edge_a[e.index()],
            b: self.edge_b[e.index()],
            weight: self.edge_weight[e.index()],
        }
    }

    /// Weight of edge `e`: its pair's `r·w` snapped to the quantum.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn edge_weight(&self, e: EdgeId) -> f64 {
        self.edge_weight[e.index()]
    }

    /// All edges in [`EdgeId`] order (pair storage order) — the one edge
    /// enumeration LP columns, seed cuts, and cost sums share.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.edge_weight.len()).map(move |e| self.edge(EdgeId(e as u32)))
    }

    /// Neighbours of `i` as `(neighbour, weight)`, in pair-scan order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn neighbors(&self, i: ObjectId) -> impl Iterator<Item = (ObjectId, f64)> + '_ {
        let (s, t) = (
            self.offsets[i.index()] as usize,
            self.offsets[i.index() + 1] as usize,
        );
        self.nbr_ids[s..t]
            .iter()
            .copied()
            .zip(self.nbr_weights[s..t].iter().copied())
    }

    /// Edge ids in descending correlation, ties by `(a, b)` — the order
    /// greedy placement (§4.1) visits pairs.
    #[must_use]
    pub fn edges_by_correlation(&self) -> &[EdgeId] {
        &self.by_correlation
    }

    /// Edge ids in descending objective weight `r·w`, ties by `(a, b)` —
    /// the order importance ranking (§4.2) and the audit's heaviest-split
    /// list use.
    #[must_use]
    pub fn edges_by_weight(&self) -> &[EdgeId] {
        &self.by_weight
    }

    /// The CCA objective `Σ_{f(a)≠f(b)} r·w` of `placement`, summed over
    /// edges in [`EdgeId`] order from `-0.0` (an exact sum, see
    /// [`CorrelationGraph::try_build`]).
    ///
    /// # Panics
    ///
    /// Panics if the placement covers fewer objects than the graph.
    #[must_use]
    pub fn cost(&self, placement: &Placement) -> f64 {
        self.cost_over(self.all_edges(), placement)
    }

    /// Every edge as one range: the flat graph is the one-shard case of
    /// the range folds.
    pub(crate) fn all_edges(&self) -> Range<EdgeId> {
        EdgeId(0)..EdgeId(self.edge_weight.len() as u32)
    }

    /// The structure-of-arrays edge columns of the edges in `range`.
    fn columns(&self, range: Range<EdgeId>) -> (&[ObjectId], &[ObjectId], &[f64]) {
        let r = range.start.index()..range.end.index();
        (
            &self.edge_a[r.clone()],
            &self.edge_b[r.clone()],
            &self.edge_weight[r],
        )
    }

    /// The one serial edge fold: the weights of the edges in `range` that
    /// `split` selects, added in [`EdgeId`] order to an accumulator that
    /// starts at `sum`'s `-0.0` identity. Zipped iteration keeps the loop
    /// free of bounds checks.
    fn split_sum(&self, range: Range<EdgeId>, split: impl Fn(ObjectId, ObjectId) -> bool) -> f64 {
        let (edge_a, edge_b, edge_weight) = self.columns(range);
        edge_a
            .iter()
            .zip(edge_b)
            .zip(edge_weight)
            .filter(|&((&a, &b), _)| split(a, b))
            .fold(-0.0, |sum, (_, &w)| sum + w)
    }

    /// [`CorrelationGraph::cost`] over the edges in `range` only (one
    /// shard's slice).
    pub(crate) fn cost_over(&self, range: Range<EdgeId>, placement: &Placement) -> f64 {
        self.split_sum(range, |a, b| placement.node_of(a) != placement.node_of(b))
    }

    /// Scores every candidate of `batch` in a **single** walk of the CSR
    /// edge columns: the outer loop runs over edges in [`EdgeId`] order,
    /// the inner loop over candidate columns, so each edge's endpoints and
    /// weight are read once for all k candidates.
    ///
    /// Column `c` of the result is **bit-identical** to
    /// `cost(batch.placement(c))`: each accumulator starts at `sum`'s
    /// `-0.0` identity and folds exactly the weights the serial walk
    /// folds, in the same EdgeId order. In
    /// particular a batch of 1 equals [`CorrelationGraph::cost`], and
    /// reordering the batch permutes the result identically — batch
    /// membership never changes any candidate's score. An empty batch
    /// yields an empty vector.
    ///
    /// # Panics
    ///
    /// Panics if the batch covers fewer objects than the graph.
    #[must_use]
    pub fn cost_batch(&self, batch: &PlacementBatch) -> Vec<f64> {
        self.cost_batch_over(self.all_edges(), batch)
    }

    /// [`CorrelationGraph::cost_batch`] over the edges in `range` only,
    /// each candidate's accumulator starting at `-0.0`.
    ///
    /// The inner loop is branchless (`-= -w` or `-= 0.0` by select), which
    /// lets the compiler vectorise across candidates, and exact for every
    /// weight: `x - (-w)` is `x + w`, and `x - 0.0` is `x` for every `x`,
    /// `-0.0` included, so each accumulator takes the serial fold's values
    /// edge by edge. A batch of one has nothing to amortise the interleave
    /// over, so it runs the serial fold on its column directly.
    pub(crate) fn cost_batch_over(&self, range: Range<EdgeId>, batch: &PlacementBatch) -> Vec<f64> {
        let k = batch.width();
        if k == 1 {
            let column = batch.column(0);
            return vec![self.split_sum(range, |a, b| column[a.index()] != column[b.index()])];
        }
        let mut acc = vec![-0.0f64; k];
        if k == 0 {
            return acc;
        }
        match batch.interleaved() {
            InterleavedRows::Narrow(rows) => self.batch_walk(range, rows, k, &mut acc),
            InterleavedRows::Wide(rows) => self.batch_walk(range, rows, k, &mut acc),
        }
        acc
    }

    /// The batched edge loop behind [`CorrelationGraph::cost_batch_over`].
    /// `rows` is the batch's object-major interleaved layout: both
    /// endpoint rows of an edge are contiguous k-wide stripes, read once
    /// for all candidates.
    fn batch_walk<T: Copy + PartialEq>(
        &self,
        range: Range<EdgeId>,
        rows: &[T],
        k: usize,
        acc: &mut [f64],
    ) {
        let (ea, eb, ew) = self.columns(range);
        // Monomorphise the hot widths: a compile-time K fully unrolls the
        // lane loop, keeps the K accumulators in registers, and elides
        // every per-lane bounds check. Other widths take the dynamic-width
        // loop, whose per-edge overhead amortises as k grows.
        match k {
            2 => walk_const::<2, T>(ea, eb, ew, rows, acc),
            4 => walk_const::<4, T>(ea, eb, ew, rows, acc),
            8 => walk_const::<8, T>(ea, eb, ew, rows, acc),
            16 => walk_const::<16, T>(ea, eb, ew, rows, acc),
            _ => walk_dyn(ea, eb, ew, rows, k, acc),
        }
    }

    // -- Replica-aware evaluation ------------------------------------------

    /// The replica-aware CCA objective: edge `(a, b)` pays `r·w` iff **no**
    /// replica pair of `a` and `b` colocates (the min-over-replica-choices
    /// read cost; see [`ReplicaPlacement::split`]). Summed over edges in
    /// [`EdgeId`] order with `sum`'s `-0.0` identity — the same fold as
    /// [`CorrelationGraph::cost`], so with `r = 1` the result is
    /// **bit-identical** to `cost(rp.primary())` (the split predicate
    /// degenerates to `node_of(a) != node_of(b)` and the fold order is
    /// unchanged; the `r = 1` fast path of the range fold makes that
    /// structural).
    ///
    /// # Panics
    ///
    /// Panics if the placement covers fewer objects than the graph.
    #[must_use]
    pub fn cost_replicas(&self, rp: &ReplicaPlacement) -> f64 {
        self.cost_replicas_over(self.all_edges(), rp)
    }

    /// [`CorrelationGraph::cost_replicas`] over the edges in `range` only.
    pub(crate) fn cost_replicas_over(&self, range: Range<EdgeId>, rp: &ReplicaPlacement) -> f64 {
        if rp.replicas() == 1 {
            return self.cost_over(range, rp.primary());
        }
        self.split_sum(range, |a, b| rp.split(a, b))
    }

    /// Communication-cost change of moving **replica `j`** of object `i`
    /// to `target`, in one O(deg·r) walk of `i`'s CSR row: each adjacent
    /// edge contributes `+w` when the move newly splits it and `−w` when
    /// it newly joins it, accumulated in row order.
    ///
    /// With `r = 1` this is the single-copy move delta
    /// `Σ_{j∈adj(i)} w_ij·([f(j)=src] − [f(j)=target])`, accumulated in
    /// row order (0 when `target` is `i`'s current node): every
    /// single-copy mover runs it through the `r = 1` copy set.
    /// [`crate::CcaProblem::eval_replica_move_deltas`] computes it for
    /// every target at once; this single-target form is that kernel's
    /// test oracle.
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
        let src = rp.node_of(i, j);
        if src == target {
            return 0.0;
        }
        let mut delta = 0.0;
        for (other, w) in self.neighbors(i) {
            match copy_edge(rp, i, j, src, other) {
                CopyEdge::HeldBySource if !rp.colocated(other, target) => delta += w,
                CopyEdge::Split if rp.colocated(other, target) => delta -= w,
                _ => {}
            }
        }
        delta
    }

    /// [`CorrelationGraph::replica_move_delta`] for **every** target
    /// node, from a single walk of `i`'s CSR row: `deltas[t]` receives
    /// the delta of moving replica `j` of `i` to node `t`.
    ///
    /// Entry `t` is **bit-identical** to `replica_move_delta(rp, i, j, t)`:
    /// it starts at `0.0` and adds exactly the same `±w` in the same row
    /// order (an edge the move to `t` leaves unchanged adds nothing), so
    /// the entry of the copy's current node is exactly `0.0`.
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
        assert_eq!(deltas.len(), rp.num_nodes(), "one delta per node");
        deltas.fill(0.0);
        let src = rp.node_of(i, j);
        // Each edge is classified once and its `±w` folded into exactly
        // the entries whose single-target walk would fold it.
        for (other, w) in self.neighbors(i) {
            match copy_edge(rp, i, j, src, other) {
                CopyEdge::HeldElsewhere => {}
                CopyEdge::HeldBySource => {
                    // `+w` on the runs of nodes between `other`'s homes.
                    let mut lo = 0;
                    for h in homes_ascending(rp, other) {
                        deltas[lo..h].iter_mut().for_each(|d| *d += w);
                        lo = h + 1;
                    }
                    deltas[lo..].iter_mut().for_each(|d| *d += w);
                }
                CopyEdge::Split => {
                    // `−w` once per distinct home: two copies may share a node.
                    for (m, h) in rp.nodes_of(other).enumerate() {
                        if !rp.nodes_of(other).take(m).any(|p| p == h) {
                            deltas[h] -= w;
                        }
                    }
                }
            }
        }
    }
}

/// What moving replica `j` of object `i` off node `src` does to one
/// adjacent edge `(i, other)` — the replica move-delta rule, written
/// once for the single-target and every-target kernels.
enum CopyEdge {
    /// Another copy of `i` colocates with `other`: the edge stays joined
    /// wherever replica `j` goes.
    HeldElsewhere,
    /// Only replica `j` colocates with `other`: moving it splits the
    /// edge (`+w`) unless the target also holds a copy of `other`.
    HeldBySource,
    /// No copy colocates: moving replica `j` joins the edge (`−w`) iff
    /// the target holds a copy of `other`.
    Split,
}

/// Classifies edge `(i, other)` for a move of replica `j` off `src`.
fn copy_edge(
    rp: &ReplicaPlacement,
    i: ObjectId,
    j: usize,
    src: usize,
    other: ObjectId,
) -> CopyEdge {
    let mut at_src = false;
    for h in rp.nodes_of(other) {
        if (0..rp.replicas()).any(|k| k != j && rp.node_of(i, k) == h) {
            return CopyEdge::HeldElsewhere;
        }
        at_src |= h == src;
    }
    if at_src {
        CopyEdge::HeldBySource
    } else {
        CopyEdge::Split
    }
}

/// The distinct home nodes of `i`, ascending, without allocating (a
/// placement after best-effort repair may hold two copies on one node).
fn homes_ascending(rp: &ReplicaPlacement, i: ObjectId) -> impl Iterator<Item = usize> + '_ {
    let mut lo = 0;
    std::iter::from_fn(move || {
        let next = rp.nodes_of(i).filter(|&h| h >= lo).min()?;
        lo = next + 1;
        Some(next)
    })
}

/// The connected groups of a seed set, and what moving one would change:
/// the one group walk behind repair's clusters, `reconcile`'s pending
/// components and the combinatorial optimal vertex.
///
/// [`GroupWalk::walk`] grows a group from each seed that no earlier group
/// reached, in seed order, by a stack DFS over CSR neighbours that a join
/// predicate admits. With seeds in ascending id, each group's first member
/// (its root) is its smallest, and groups come in ascending root order.
/// Each group stamps its members with its own `u64`, and stamps only grow,
/// so one array says both "reached by this walk" and "in group `g`":
/// nothing is hashed, and no buffer is cleared object by object. The fold
/// and the accessors are `#[inline]`: a repair step folds every cluster
/// on its source node, thousands of singletons on a dead one, and the
/// calls cross codegen units.
#[derive(Default)]
pub(crate) struct GroupWalk {
    /// `stamp[i]`: the stamp of the last group that reached object `i`.
    stamp: Vec<u64>,
    /// The last group's stamp; this walk's groups hold those above `base`.
    last: u64,
    base: u64,
    /// Every group's members, group after group, each in DFS order.
    members: Vec<ObjectId>,
    /// Each group as its range of `members`.
    groups: Vec<Range<usize>>,
    stack: Vec<ObjectId>,
    /// `join[k]`: the last fold's weight to non-members on node `k`; only
    /// the entries listed in `touched` can be non-zero.
    join: Vec<f64>,
    touched: Vec<usize>,
}

impl GroupWalk {
    pub(crate) fn new(num_objects: usize, num_nodes: usize) -> GroupWalk {
        GroupWalk {
            stamp: vec![0; num_objects],
            join: vec![0.0; num_nodes],
            ..GroupWalk::default()
        }
    }

    /// Replaces the groups with those of `seeds`: a neighbour `other` of a
    /// member `o` joins `o`'s group when no group of this walk has reached
    /// it and `joins(o, other)`.
    pub(crate) fn walk(
        &mut self,
        graph: &CorrelationGraph,
        seeds: impl IntoIterator<Item = ObjectId>,
        joins: impl Fn(ObjectId, ObjectId) -> bool,
    ) {
        self.members.clear();
        self.groups.clear();
        self.base = self.last;
        for seed in seeds {
            if self.stamp[seed.index()] > self.base {
                continue;
            }
            self.last += 1;
            let (stamp, start) = (self.last, self.members.len());
            self.stamp[seed.index()] = stamp;
            self.stack.push(seed);
            while let Some(o) = self.stack.pop() {
                self.members.push(o);
                for (other, _) in graph.neighbors(o) {
                    if self.stamp[other.index()] <= self.base && joins(o, other) {
                        self.stamp[other.index()] = stamp;
                        self.stack.push(other);
                    }
                }
            }
            self.groups.push(start..self.members.len());
        }
    }

    /// The number of groups.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.groups.len()
    }

    /// Group `g`'s members, root first, in DFS order.
    #[inline]
    pub(crate) fn group(&self, g: usize) -> &[ObjectId] {
        &self.members[self.groups[g].clone()]
    }

    /// Orders the groups by `key` descending. The sort is stable, so
    /// groups of equal key keep walk order: ascending root, for seeds in
    /// ascending id.
    pub(crate) fn sort_descending<K: Ord>(&mut self, key: impl Fn(&[ObjectId]) -> K) {
        let members = &self.members;
        (self.groups).sort_by_key(|r| std::cmp::Reverse(key(&members[r.clone()])));
    }

    /// The fold over group `g` under `placement`, in one walk of its
    /// members' CSR rows. Returns `(split, left)`: `split` is the weight
    /// of the group's edges whose ends sit on different nodes, each edge
    /// once; `left` is the weight from members to non-members on the
    /// member's own node, which moving the group leaves behind. The weight
    /// from members to non-members on each other node `k`, which a move to
    /// `k` would join, is [`GroupWalk::join`]`(k)` until the next fold.
    /// Every weight is a multiple of the graph's quantum, so each sum is
    /// exact in any order (see [`CorrelationGraph::try_build`]).
    #[inline]
    pub(crate) fn fold(
        &mut self,
        graph: &CorrelationGraph,
        g: usize,
        placement: &Placement,
    ) -> (f64, f64) {
        for k in self.touched.drain(..) {
            self.join[k] = 0.0;
        }
        let members = &self.members[self.groups[g].clone()];
        let stamp = self.stamp[members[0].index()];
        let (mut split, mut left) = (0.0, 0.0);
        for &o in members {
            let home = placement.node_of(o);
            for (other, w) in graph.neighbors(o) {
                if self.stamp[other.index()] == stamp {
                    if o < other && placement.node_of(other) != home {
                        split += w;
                    }
                    continue;
                }
                let on = placement.node_of(other);
                if on == home {
                    left += w;
                } else {
                    if self.join[on] == 0.0 {
                        self.touched.push(on);
                    }
                    self.join[on] += w;
                }
            }
        }
        (split, left)
    }

    /// The last fold's weight from the group to non-members on node `k`.
    #[inline]
    pub(crate) fn join(&self, k: usize) -> f64 {
        self.join[k]
    }

    /// `max(0, maxₖ join(k))` of the last fold.
    #[inline]
    pub(crate) fn max_join(&self) -> f64 {
        (self.touched.iter()).fold(0.0, |m, &k| f64::max(m, self.join[k]))
    }
}

/// The single-copy move delta of moving `i` to each node in `targets`, as
/// its own kernel computed it before every mover ran the `r = 1` replica
/// kernel: one row walk, each entry starting at `0.0` and folding `+w`
/// (the partner stays on `src`) or `−w` (the partner is on the target) in
/// row order; a target equal to `src` reads exactly `0.0`. Kept as the
/// test oracle of the capacity repair and local search references.
#[cfg(test)]
pub(crate) fn single_copy_move_deltas(
    graph: &CorrelationGraph,
    placement: &Placement,
    i: ObjectId,
    targets: &[usize],
) -> Vec<f64> {
    let src = placement.node_of(i);
    let mut deltas = vec![0.0f64; targets.len()];
    for (other, w) in graph.neighbors(i) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::CcaProblem;

    fn problem() -> CcaProblem {
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..4).map(|i| b.add_object(format!("o{i}"), 10)).collect();
        b.add_pair(o[0], o[1], 0.9, 10.0).unwrap(); // weight 9
        b.add_pair(o[2], o[3], 0.5, 10.0).unwrap(); // weight 5
        b.add_pair(o[0], o[2], 0.1, 10.0).unwrap(); // weight 1
        b.uniform_capacities(2, 25).build().unwrap()
    }

    #[test]
    fn edge_ids_back_map_to_pairs() {
        let p = problem();
        let g = p.graph();
        assert_eq!(g.num_edges(), p.pairs().len());
        assert_eq!(g.num_objects(), p.num_objects());
        for (e, pair) in p.pairs().iter().enumerate() {
            let edge = g.edge(EdgeId(e as u32));
            assert_eq!((edge.a, edge.b), (pair.a, pair.b));
            let snapped = (pair.weight() / g.quantum()).round() * g.quantum();
            assert_eq!(edge.weight.to_bits(), snapped.to_bits());
        }
    }

    #[test]
    fn csr_rows_follow_pair_scan_order() {
        let p = problem();
        let g = p.graph();
        // Row 0 discovers (0,1) then (0,2) in pair-list order.
        let row: Vec<_> = g.neighbors(ObjectId(0)).collect();
        assert_eq!(row, vec![(ObjectId(1), 9.0), (ObjectId(2), 1.0)]);
        assert_eq!(g.degree(ObjectId(0)), 2);
        assert_eq!(g.degree(ObjectId(3)), 1);
        // Builder sorts pairs by (a, b): (0,1), (0,2), (2,3).
        let row: Vec<_> = g.neighbors(ObjectId(2)).collect();
        assert_eq!(row, vec![(ObjectId(0), 1.0), (ObjectId(3), 5.0)]);
    }

    #[test]
    fn cost_matches_pair_scan_bitwise() {
        let p = problem();
        let g = p.graph();
        for assignment in [
            vec![0u32, 0, 0, 0],
            vec![0, 1, 0, 1],
            vec![0, 0, 1, 1],
            vec![1, 0, 0, 1],
        ] {
            let pl = Placement::new(assignment, 2);
            let scan: f64 = p
                .pairs()
                .iter()
                .filter(|pr| pl.node_of(pr.a) != pl.node_of(pr.b))
                .map(|pr| pr.weight())
                .sum();
            assert_eq!(g.cost(&pl).to_bits(), scan.to_bits());
        }
    }

    #[test]
    fn precomputed_orders_match_fresh_sorts() {
        let p = problem();
        let g = p.graph();
        let mut by_corr: Vec<usize> = (0..p.pairs().len()).collect();
        by_corr.sort_unstable_by(|&x, &y| {
            let (px, py) = (&p.pairs()[x], &p.pairs()[y]);
            py.correlation
                .partial_cmp(&px.correlation)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then((px.a, px.b).cmp(&(py.a, py.b)))
        });
        let got: Vec<usize> = g.edges_by_correlation().iter().map(|e| e.index()).collect();
        assert_eq!(got, by_corr);
        let mut by_w: Vec<usize> = (0..p.pairs().len()).collect();
        by_w.sort_unstable_by(|&x, &y| {
            let (px, py) = (&p.pairs()[x], &p.pairs()[y]);
            py.weight()
                .partial_cmp(&px.weight())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then((px.a, px.b).cmp(&(py.a, py.b)))
        });
        let got: Vec<usize> = g.edges_by_weight().iter().map(|e| e.index()).collect();
        assert_eq!(got, by_w);
    }

    #[test]
    fn move_delta_equals_recompute_difference() {
        let p = problem();
        let g = p.graph();
        let pl = Placement::new(vec![0, 1, 0, 1], 2);
        let rp = ReplicaPlacement::from_primary(pl.clone());
        for i in 0..4u32 {
            for k in 0..2usize {
                let delta = g.replica_move_delta(&rp, ObjectId(i), 0, k);
                let mut moved = pl.clone();
                moved.assign(ObjectId(i), k);
                let diff = g.cost(&moved) - g.cost(&pl);
                assert_eq!(delta.to_bits(), diff.to_bits(), "obj {i} -> node {k}");
            }
        }
    }

    #[test]
    fn cost_batch_columns_bit_equal_serial_cost() {
        let p = problem();
        let g = p.graph();
        let candidates = vec![
            Placement::new(vec![0, 0, 0, 0], 2),
            Placement::new(vec![0, 1, 0, 1], 2),
            Placement::new(vec![0, 0, 1, 1], 2),
            Placement::new(vec![1, 0, 0, 1], 2),
        ];
        let batch = PlacementBatch::from_placements(&candidates);
        assert_eq!(batch.width(), 4);
        let costs = g.cost_batch(&batch);
        for (c, pl) in candidates.iter().enumerate() {
            assert_eq!(costs[c].to_bits(), g.cost(pl).to_bits(), "column {c}");
        }
        // Batch of 1 ≡ cost, including the all-colocated -0.0 identity.
        let one = PlacementBatch::from_placements(&candidates[..1]);
        assert_eq!(g.cost_batch(&one)[0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn move_delta_batch_bit_equals_per_target_deltas() {
        let p = problem();
        let g = p.graph();
        let pl = Placement::new(vec![0, 1, 0, 1], 2);
        let rp = ReplicaPlacement::from_primary(pl.clone());
        let targets = [0usize, 1];
        let mut deltas = [f64::NAN; 2];
        for i in 0..4u32 {
            g.replica_move_deltas(&rp, ObjectId(i), 0, &mut deltas);
            let rule = single_copy_move_deltas(g, &pl, ObjectId(i), &targets);
            for (t, &k) in targets.iter().enumerate() {
                let scalar = g.replica_move_delta(&rp, ObjectId(i), 0, k);
                assert_eq!(deltas[k].to_bits(), scalar.to_bits(), "obj {i} -> node {k}");
                assert_eq!(
                    deltas[k].to_bits(),
                    rule[t].to_bits(),
                    "obj {i} -> node {k}"
                );
            }
            // The copy's own node reads exactly zero.
            assert_eq!(deltas[pl.node_of(ObjectId(i))].to_bits(), 0.0f64.to_bits());
        }
        assert!(single_copy_move_deltas(g, &pl, ObjectId(0), &[]).is_empty());
    }

    #[test]
    fn range_folds_cover_only_their_slice() {
        let p = problem();
        let g = p.graph();
        // Edges (0,2) w1 and (2,3) w5, skipping (0,1) w9.
        let slice = EdgeId(1)..EdgeId(3);
        let pl = Placement::new(vec![0, 1, 0, 1], 2);
        assert_eq!(g.cost_over(slice.clone(), &pl), 5.0);
        assert_eq!(
            g.cost_over(EdgeId(1)..EdgeId(1), &pl).to_bits(),
            (-0.0f64).to_bits()
        );
        // The third column splits nothing and keeps the `-0.0` identity.
        // Width 4 runs a fixed-width kernel, width 3 the dynamic one.
        let candidates = [
            pl.clone(),
            Placement::new(vec![0, 1, 1, 1], 2),
            Placement::new(vec![0; 4], 2),
            Placement::new(vec![1, 0, 0, 1], 2),
        ];
        for width in [3, 4] {
            let batch = PlacementBatch::from_placements(&candidates[..width]);
            let bits: Vec<u64> = g
                .cost_batch_over(slice.clone(), &batch)
                .iter()
                .map(|c| c.to_bits())
                .collect();
            assert_eq!(bits, [5.0f64, 1.0, -0.0, 6.0].map(f64::to_bits)[..width]);
        }
        // Two copies: (0,1) and (2,3) share a node, only (0,2) is split.
        let rp = ReplicaPlacement::from_columns(vec![
            Placement::new(vec![0, 0, 1, 1], 3),
            Placement::new(vec![2, 1, 1, 0], 3),
        ]);
        assert_eq!(g.cost_replicas_over(slice, &rp), 1.0);
        assert_eq!(
            g.cost_replicas_over(EdgeId(2)..EdgeId(3), &rp).to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(g.cost_replicas(&rp), 1.0);
    }

    #[test]
    fn quantum_bounds_the_total_weight() {
        let pow2 = |e: i32| 2f64.powi(e);
        assert_eq!(quantum_for(1.0), pow2(-52));
        assert_eq!(quantum_for(1.5), pow2(-51));
        assert_eq!(quantum_for(15.0), pow2(-48));
        assert_eq!(quantum_for(16.0), pow2(-48));
        assert_eq!(quantum_for(f64::MAX), pow2(972));
        // Empty and tiny totals clamp to the smallest normal power of two.
        for tiny in [0.0, -0.0, 1e-310, 1e-300] {
            assert_eq!(quantum_for(tiny), f64::MIN_POSITIVE, "total {tiny}");
        }
    }

    #[test]
    fn snapped_weights_sum_exactly_in_any_order() {
        // Tenths are not binary fractions: raw sums depend on their order.
        let pairs: Vec<Pair> = (0..40u32)
            .map(|i| Pair {
                a: ObjectId(i),
                b: ObjectId(i + 1),
                correlation: f64::from(i % 9 + 1) / 10.0,
                comm_cost: f64::from(i % 7 + 1) * 1.37,
            })
            .collect();
        let g = CorrelationGraph::build(41, &pairs);
        let total: f64 = pairs.iter().map(Pair::weight).sum();
        assert_eq!(g.quantum(), quantum_for(total));
        for (edge, pair) in g.edges().zip(&pairs) {
            let units = edge.weight / g.quantum();
            assert_eq!(units, units.round(), "{edge:?} is off the grid");
            assert!((edge.weight - pair.weight()).abs() <= g.quantum() / 2.0);
        }
        let weights: Vec<f64> = g.edges().map(|e| e.weight).collect();
        let forward: f64 = weights.iter().sum();
        let reversed: f64 = weights.iter().rev().sum();
        let interleaved: f64 =
            weights.iter().step_by(2).sum::<f64>() + weights.iter().skip(1).step_by(2).sum::<f64>();
        let halves: f64 = pairs
            .chunks(20)
            .map(|half| {
                half.iter()
                    .map(|p| (p.weight() / g.quantum()).round() * g.quantum())
                    .sum::<f64>()
            })
            .sum();
        for other in [reversed, interleaved, halves] {
            assert_eq!(forward.to_bits(), other.to_bits());
        }
        // A non-finite total is a typed error, not an infinite cost.
        let huge = Pair {
            a: ObjectId(0),
            b: ObjectId(1),
            correlation: f64::MAX,
            comm_cost: 2.0,
        };
        assert_eq!(
            CorrelationGraph::try_build(2, &[huge]),
            Err(ProblemError::Overflow("total pair weight".into()))
        );
    }

    #[test]
    fn empty_batch_scores_nothing() {
        let p = problem();
        let g = p.graph();
        let batch = PlacementBatch::new(p.num_objects(), 2);
        assert!(batch.is_empty());
        assert!(g.cost_batch(&batch).is_empty());
    }

    #[test]
    fn batch_round_trips_placements() {
        let pl = Placement::new(vec![1, 0, 1, 0], 2);
        let mut batch = PlacementBatch::new(4, 2);
        batch.push(&pl);
        assert_eq!(batch.num_objects(), 4);
        assert_eq!(batch.num_nodes(), 2);
        assert_eq!(batch.column(0), pl.as_slice());
        assert_eq!(batch.placement(0), pl);
    }

    #[test]
    fn empty_graph_is_well_formed() {
        let g = CorrelationGraph::build(3, &[]);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(ObjectId(2)), 0);
        let pl = Placement::new(vec![0, 1, 0], 2);
        assert_eq!(g.cost(&pl), 0.0);
    }

    #[test]
    fn too_many_objects_error_before_allocating() {
        // The guard fires before any `num_objects`-sized allocation, so an
        // absurd object count is a cheap typed error, not an OOM or a
        // wrapped u32 offset.
        let err = CorrelationGraph::try_build(u32::MAX as usize + 1, &[]).unwrap_err();
        assert!(matches!(
            err,
            ProblemError::GraphTooLarge {
                objects,
                pairs: 0,
            } if objects == u32::MAX as usize + 1
        ));
        let msg = err.to_string();
        assert!(msg.contains("too large"), "unhelpful message: {msg}");
    }

    #[test]
    fn too_many_pairs_error_is_typed() {
        // 2^31 pairs cannot be materialised in a test, but the guard is a
        // pure function of the counts — pin the exact boundary: u32::MAX/2
        // pairs (2·m = u32::MAX - 1 half-edges) is the last valid count.
        assert!(check_csr_bounds(10, (u32::MAX / 2) as usize).is_ok());
        assert!(matches!(
            check_csr_bounds(10, (u32::MAX / 2) as usize + 1),
            Err(ProblemError::GraphTooLarge { .. })
        ));
        assert!(check_csr_bounds(u32::MAX as usize, 0).is_ok());
    }
}
