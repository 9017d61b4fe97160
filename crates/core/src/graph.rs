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
//!   `problem.pairs()[e]`; the edge weight `r·w` is precomputed once with
//!   the same multiplication the `Pair::weight` call sites performed, so
//!   every sum over edges reproduces the historic pair-scan **bit for
//!   bit**. The pair list is *never* re-sorted here: `restrict_to` yields
//!   pairs in keep-list order and `prune_pairs` leaves them weight-sorted,
//!   and both orders are load-bearing (f64 summation order, LP column
//!   order). See DESIGN.md §9 for the full iteration-order contract.
//! * **CSR rows in pair-scan order.** Row `i` lists the neighbours of `i`
//!   in the order a single scan of the pair list discovers them — exactly
//!   the push order of the per-module `adjacency()` vectors this replaces
//!   — so O(deg) move deltas accumulate in the historic order too.
//! * **Precomputed orderings.** [`CorrelationGraph::edges_by_correlation`]
//!   (greedy §4.1) and [`CorrelationGraph::edges_by_weight`] (importance
//!   ranking §4.2, audit) are total orders (the `(a, b)` tie-break is
//!   unique per edge), so they equal what a per-call `sort_unstable` of
//!   pair indices produced, for any starting permutation.
//! * **Edge folds over [`EdgeId`] ranges.** The cost folds (`cost`,
//!   `cost_batch`, `cost_replicas`) are each written once, over a list of
//!   ascending EdgeId ranges threaded through one accumulator. The flat
//!   graph is the one-range case; a shard of
//!   [`crate::shard::ShardedGraph`] is the ranges it owns.
//!
//! [`IncrementalCost`] layers an O(deg)-per-move cost accumulator on top,
//! with the invariant that deltas match a full recompute difference (the
//! `graph_properties` suite pins this exactly, not within an epsilon).

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

/// One edge of the correlation graph: a pair plus its precomputed
/// objective weight `r·w`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// The edge's id (index into the problem's pair list).
    pub id: EdgeId,
    /// Smaller-id endpoint.
    pub a: ObjectId,
    /// Larger-id endpoint.
    pub b: ObjectId,
    /// Precomputed objective weight `r(a,b)·w(a,b)`.
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

impl CorrelationGraph {
    /// Builds the CSR view over `pairs` for `num_objects` objects.
    ///
    /// # Panics
    ///
    /// Panics if a pair references an object `>= num_objects` (the builder
    /// validates ids before this runs), or if the instance overflows the
    /// `u32` CSR indexing — use [`CorrelationGraph::try_build`] to get a
    /// [`ProblemError::GraphTooLarge`] instead.
    #[must_use]
    pub fn build(num_objects: usize, pairs: &[Pair]) -> CorrelationGraph {
        CorrelationGraph::try_build(num_objects, pairs)
            .unwrap_or_else(|e| panic!("correlation graph build failed: {e}"))
    }

    /// Fallible [`CorrelationGraph::build`]: returns
    /// [`ProblemError::GraphTooLarge`] when the instance would overflow the
    /// `u32` CSR offsets / [`EdgeId`] casts (more than `u32::MAX / 2` pairs,
    /// whose `2·m` half-edge slots would wrap the offset accumulator, or
    /// more than `u32::MAX` objects), instead of silently wrapping. The
    /// bound is checked before any allocation.
    ///
    /// # Panics
    ///
    /// Panics if a pair references an object `>= num_objects` (the builder
    /// validates ids before this runs).
    ///
    /// # Errors
    ///
    /// [`ProblemError::GraphTooLarge`] as described above.
    pub fn try_build(num_objects: usize, pairs: &[Pair]) -> Result<CorrelationGraph, ProblemError> {
        check_csr_bounds(num_objects, pairs.len())?;
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
            edge_weight.push(pair.weight());
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
                .then((edge_a[x.index()], edge_b[x.index()]).cmp(&(edge_a[y.index()], edge_b[y.index()])))
        });
        Ok(CorrelationGraph {
            num_objects,
            edge_a,
            edge_b,
            edge_weight,
            offsets,
            nbr_ids,
            nbr_weights,
            by_correlation,
            by_weight,
        })
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

    /// Precomputed weight `r·w` of edge `e`.
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
    /// edges in [`EdgeId`] order — bit-identical to the historic pair-list
    /// scan.
    ///
    /// # Panics
    ///
    /// Panics if the placement covers fewer objects than the graph.
    #[must_use]
    pub fn cost(&self, placement: &Placement) -> f64 {
        self.cost_over(&[self.all_edges()], placement)
    }

    /// Every edge as one range: the flat graph is the one-shard case of
    /// the range folds.
    pub(crate) fn all_edges(&self) -> Range<EdgeId> {
        EdgeId(0)..EdgeId(self.edge_weight.len() as u32)
    }

    /// The structure-of-arrays edge columns of the edges in `range`.
    fn columns(&self, range: &Range<EdgeId>) -> (&[ObjectId], &[ObjectId], &[f64]) {
        let r = range.start.index()..range.end.index();
        (
            &self.edge_a[r.clone()],
            &self.edge_b[r.clone()],
            &self.edge_weight[r],
        )
    }

    /// The one serial edge fold: the weights of the edges in `ranges` that
    /// `split` selects, added range by range (ascending [`EdgeId`] within
    /// each) to a single accumulator that starts at `sum`'s `-0.0`
    /// identity — the `filter · map · sum` sequence of the historic
    /// pair-list scan. Zipped iteration keeps the loop free of bounds
    /// checks.
    fn split_sum(
        &self,
        ranges: &[Range<EdgeId>],
        split: impl Fn(ObjectId, ObjectId) -> bool,
    ) -> f64 {
        ranges.iter().fold(-0.0, |acc, range| {
            let (edge_a, edge_b, edge_weight) = self.columns(range);
            edge_a
                .iter()
                .zip(edge_b)
                .zip(edge_weight)
                .filter(|&((&a, &b), _)| split(a, b))
                .fold(acc, |sum, (_, &w)| sum + w)
        })
    }

    /// [`CorrelationGraph::cost`] over the edges in `ranges` only (the
    /// edges one shard owns), folded into one accumulator from `-0.0`.
    pub(crate) fn cost_over(&self, ranges: &[Range<EdgeId>], placement: &Placement) -> f64 {
        self.split_sum(ranges, |a, b| placement.node_of(a) != placement.node_of(b))
    }

    /// Communication-cost change of moving `i` from its current node to
    /// `target`: `Σ_{j∈adj(i)} w_ij·([f(j)=src] − [f(j)=target])`,
    /// accumulated in row order (negative is an improvement; 0 when
    /// `target` is `i`'s current node).
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
        for (other, w) in self.neighbors(i) {
            let on = placement.node_of(other);
            if on == src {
                delta += w;
            } else if on == target {
                delta -= w;
            }
        }
        delta
    }

    /// Scores every candidate of `batch` in a **single** walk of the CSR
    /// edge columns: the outer loop runs over edges in [`EdgeId`] order,
    /// the inner loop over candidate columns, so each edge's endpoints and
    /// weight are read once for all k candidates.
    ///
    /// Column `c` of the result is **bit-identical** to
    /// `cost(batch.placement(c))`: each accumulator starts at `sum`'s
    /// `-0.0` identity and folds exactly the weights the serial
    /// `filter · map · sum` walk folds, in the same EdgeId order. In
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
        self.cost_batch_over(&[self.all_edges()], batch)
    }

    /// [`CorrelationGraph::cost_batch`] over the edges in `ranges` only:
    /// each candidate's accumulator starts at `-0.0` and runs through
    /// every range in turn.
    ///
    /// The inner loop is branchless (`-= -w` or `-= 0.0` by select), which
    /// lets the compiler vectorise across candidates, and exact for every
    /// weight: `x - (-w)` is `x + w`, and `x - 0.0` is `x` for every `x`,
    /// `-0.0` included, so each accumulator takes the serial fold's values
    /// edge by edge.
    pub(crate) fn cost_batch_over(
        &self,
        ranges: &[Range<EdgeId>],
        batch: &PlacementBatch,
    ) -> Vec<f64> {
        let k = batch.width();
        let mut acc = vec![-0.0f64; k];
        if k == 0 {
            return acc;
        }
        match batch.interleaved() {
            InterleavedRows::Narrow(rows) => self.batch_walk(ranges, rows, k, &mut acc),
            InterleavedRows::Wide(rows) => self.batch_walk(ranges, rows, k, &mut acc),
        }
        acc
    }

    /// The batched edge loop behind [`CorrelationGraph::cost_batch_over`].
    /// `rows` is the batch's object-major interleaved layout: both
    /// endpoint rows of an edge are contiguous k-wide stripes, read once
    /// for all candidates.
    fn batch_walk<T: Copy + PartialEq>(
        &self,
        ranges: &[Range<EdgeId>],
        rows: &[T],
        k: usize,
        acc: &mut [f64],
    ) {
        for range in ranges {
            let (ea, eb, ew) = self.columns(range);
            // Monomorphise the hot widths: a compile-time K fully unrolls
            // the lane loop, keeps the K accumulators in registers, and
            // elides every per-lane bounds check. Other widths take the
            // dynamic-width loop, whose per-edge overhead amortises as k
            // grows.
            match k {
                1 => walk_const::<1, T>(ea, eb, ew, rows, acc),
                2 => walk_const::<2, T>(ea, eb, ew, rows, acc),
                4 => walk_const::<4, T>(ea, eb, ew, rows, acc),
                8 => walk_const::<8, T>(ea, eb, ew, rows, acc),
                16 => walk_const::<16, T>(ea, eb, ew, rows, acc),
                _ => walk_dyn(ea, eb, ew, rows, k, acc),
            }
        }
    }

    /// [`CorrelationGraph::move_delta`] for every target in `targets`, in
    /// a **single** walk of `i`'s CSR row: each neighbour's node is looked
    /// up once and folded into all k target accumulators.
    ///
    /// Entry `t` of the result is **bit-identical** to
    /// `move_delta(placement, i, targets[t])`: each accumulator starts at
    /// `0.0` and adds/subtracts exactly the weights the per-target walk
    /// does, in the same row order (`targets[t] == src` yields exactly
    /// `0.0`).
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
        for (other, w) in self.neighbors(i) {
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
        self.cost_replicas_over(&[self.all_edges()], rp)
    }

    /// [`CorrelationGraph::cost_replicas`] over the edges in `ranges`
    /// only, folded into one accumulator from `-0.0`.
    pub(crate) fn cost_replicas_over(
        &self,
        ranges: &[Range<EdgeId>],
        rp: &ReplicaPlacement,
    ) -> f64 {
        if rp.replicas() == 1 {
            return self.cost_over(ranges, rp.primary());
        }
        self.split_sum(ranges, |a, b| rp.split(a, b))
    }

    /// Communication-cost change of moving **replica `j`** of object `i`
    /// to `target`, in one O(deg·r) walk of `i`'s CSR row: each adjacent
    /// edge contributes `+w` when the move newly splits it and `−w` when
    /// it newly joins it, accumulated in row order.
    ///
    /// With `r = 1` this adds/subtracts exactly the weights
    /// [`CorrelationGraph::move_delta`] does, in the same order, so the
    /// result is bit-identical.
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

/// O(deg)-per-move communication-cost accumulator over a
/// [`CorrelationGraph`].
///
/// Seeded with a full (bit-identical) cost walk, then kept current by
/// adding each applied move's [`CorrelationGraph::move_delta`]. The
/// `graph_properties` suite pins `delta == recompute difference` exactly
/// (the delta and the recompute cancel/accumulate the same weights in the
/// same row order), and `cost()` tracks a fresh recompute exactly on
/// dyadic-weight instances across arbitrary move sequences.
#[derive(Debug, Clone)]
pub struct IncrementalCost<'g> {
    graph: &'g CorrelationGraph,
    cost: f64,
}

impl<'g> IncrementalCost<'g> {
    /// Seeds the accumulator with the full cost of `placement`.
    #[must_use]
    pub fn new(graph: &'g CorrelationGraph, placement: &Placement) -> Self {
        IncrementalCost {
            graph,
            cost: graph.cost(placement),
        }
    }

    /// The tracked communication cost.
    #[must_use]
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Cost change of moving `i` to `target` under `placement`, without
    /// applying it.
    #[must_use]
    pub fn delta(&self, placement: &Placement, i: ObjectId, target: usize) -> f64 {
        self.graph.move_delta(placement, i, target)
    }

    /// Cost changes of moving `i` to each of `targets`, from one walk of
    /// `i`'s row (see [`CorrelationGraph::move_delta_batch`]); entry `t`
    /// bit-equals `delta(placement, i, targets[t])`.
    #[must_use]
    pub fn delta_batch(&self, placement: &Placement, i: ObjectId, targets: &[usize]) -> Vec<f64> {
        self.graph.move_delta_batch(placement, i, targets)
    }

    /// Applies the move `i → target` to `placement` and folds its delta
    /// into the tracked cost. Returns the delta.
    pub fn apply(&mut self, placement: &mut Placement, i: ObjectId, target: usize) -> f64 {
        let delta = self.graph.move_delta(placement, i, target);
        placement.assign(i, target);
        self.cost += delta;
        delta
    }

    /// Re-seeds the tracked cost from a full walk of `placement` (e.g.
    /// after bulk mutations applied outside this accumulator).
    pub fn resync(&mut self, placement: &Placement) {
        self.cost = self.graph.cost(placement);
    }
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
            assert_eq!(edge.weight.to_bits(), pair.weight().to_bits());
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
        for i in 0..4u32 {
            for k in 0..2usize {
                let delta = g.move_delta(&pl, ObjectId(i), k);
                let mut moved = pl.clone();
                moved.assign(ObjectId(i), k);
                let diff = g.cost(&moved) - g.cost(&pl);
                assert_eq!(delta.to_bits(), diff.to_bits(), "obj {i} -> node {k}");
            }
        }
    }

    #[test]
    fn incremental_cost_tracks_moves() {
        let p = problem();
        let g = p.graph();
        let mut pl = Placement::new(vec![0, 0, 0, 0], 2);
        let mut inc = IncrementalCost::new(g, &pl);
        assert_eq!(inc.cost(), 0.0);
        let d = inc.apply(&mut pl, ObjectId(1), 1);
        assert_eq!(d, 9.0);
        assert_eq!(inc.cost(), 9.0);
        assert_eq!(pl.node_of(ObjectId(1)), 1);
        inc.apply(&mut pl, ObjectId(0), 1);
        // (0,1) rejoined (−9), (0,2) split (+1).
        assert_eq!(inc.cost(), 1.0);
        assert_eq!(inc.cost().to_bits(), g.cost(&pl).to_bits());
        inc.resync(&pl);
        assert_eq!(inc.cost(), 1.0);
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
        let targets = [0usize, 1];
        for i in 0..4u32 {
            let deltas = g.move_delta_batch(&pl, ObjectId(i), &targets);
            for (t, &k) in targets.iter().enumerate() {
                assert_eq!(
                    deltas[t].to_bits(),
                    g.move_delta(&pl, ObjectId(i), k).to_bits(),
                    "obj {i} -> node {k}"
                );
            }
        }
        // All targets == src short-circuits to exact zeros.
        let src = pl.node_of(ObjectId(0));
        assert_eq!(g.move_delta_batch(&pl, ObjectId(0), &[src, src]), vec![0.0, 0.0]);
    }

    #[test]
    fn range_folds_thread_one_accumulator_through_every_range() {
        let p = problem();
        let g = p.graph();
        // Edges (0,1) w9 and (2,3) w5, skipping (0,2) w1.
        let ranges = [EdgeId(0)..EdgeId(1), EdgeId(2)..EdgeId(3)];
        let pl = Placement::new(vec![0, 1, 0, 1], 2);
        assert_eq!(g.cost_over(&ranges, &pl), 14.0);
        assert_eq!(g.cost_over(&[], &pl).to_bits(), (-0.0f64).to_bits());
        // The second column splits only the skipped edge, and the third
        // nothing: both keep the `-0.0` identity across the two ranges.
        // Width 4 runs a fixed-width kernel, width 3 the dynamic one.
        let candidates = [
            pl.clone(),
            Placement::new(vec![0, 0, 1, 1], 2),
            Placement::new(vec![0; 4], 2),
            Placement::new(vec![0, 1, 1, 1], 2),
        ];
        for width in [3, 4] {
            let batch = PlacementBatch::from_placements(&candidates[..width]);
            let bits: Vec<u64> = g
                .cost_batch_over(&ranges, &batch)
                .iter()
                .map(|c| c.to_bits())
                .collect();
            assert_eq!(bits, [14.0f64, -0.0, -0.0, 9.0].map(f64::to_bits)[..width]);
        }
        // Two copies: (0,1) and (2,3) share a node, only (0,2) is split.
        let rp = ReplicaPlacement::from_columns(vec![
            Placement::new(vec![0, 0, 1, 1], 3),
            Placement::new(vec![2, 1, 1, 0], 3),
        ]);
        assert_eq!(
            g.cost_replicas_over(&ranges, &rp).to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(g.cost_replicas(&rp), 1.0);
    }

    #[test]
    fn empty_batch_scores_nothing() {
        let p = problem();
        let g = p.graph();
        let batch = PlacementBatch::new(p.num_objects(), 2);
        assert!(batch.is_empty());
        assert!(g.cost_batch(&batch).is_empty());
        let pl = Placement::new(vec![0, 1, 0, 1], 2);
        assert!(g.move_delta_batch(&pl, ObjectId(0), &[]).is_empty());
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
