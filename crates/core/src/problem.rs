//! The Capacity-Constrained Assignment (CCA) problem (paper §2.1).

use crate::graph::{CorrelationGraph, PlacementBatch};
use crate::placement::Placement;
use crate::replica::ReplicaPlacement;
use crate::resources::{Resource, ResourceError};
use crate::shard::ShardedGraph;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Identifier of a data object (index into the problem's object table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// Index form of the identifier.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// A correlated object pair with its correlation `r(i,j)` and communication
/// cost `w(i,j)`. The pair contributes `r·w` to the objective when its
/// objects are placed on different nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pair {
    /// Smaller-id endpoint.
    pub a: ObjectId,
    /// Larger-id endpoint.
    pub b: ObjectId,
    /// Correlation `r(i,j)`: probability the objects are requested together
    /// (possibly adjusted per §3.2 for >2-object operations).
    pub correlation: f64,
    /// Communication overhead `w(i,j)` incurred when the pair is requested
    /// across nodes.
    pub comm_cost: f64,
}

impl Pair {
    /// The pair's raw objective weight `r(i,j) · w(i,j)`. The graph's
    /// edge weight is this product snapped to the graph's quantum
    /// ([`CorrelationGraph::try_build`]); every cost reads that one.
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.correlation * self.comm_cost
    }
}

/// Error produced when assembling an invalid [`CcaProblem`].
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemError {
    /// A pair references an object id outside the object table.
    UnknownObject(ObjectId),
    /// Two objects share a name. Names feed MD5 hash placement
    /// ([`crate::random_hash_placement`]), so duplicates would silently
    /// collide onto the same bucket and corrupt the baseline.
    DuplicateName(String),
    /// A pair connects an object to itself.
    SelfPair(ObjectId),
    /// A numeric field is negative or non-finite.
    InvalidNumber(String),
    /// The problem has no nodes.
    NoNodes,
    /// An object has size zero (it would be invisible to every capacity
    /// constraint and to hash-based placement weights).
    ZeroSizeObject(ObjectId),
    /// Every node has zero capacity, so nothing can ever be placed.
    /// (Individual zero-capacity nodes stay legal — they model failed or
    /// drained nodes.)
    ZeroCapacity,
    /// A total does not fit its type; names the total. The totals that
    /// capacity checks sum (the object sizes, the node capacities, a
    /// secondary resource's demands or capacities) must fit a `u64`, and
    /// the total pair weight must be a finite `f64`.
    Overflow(String),
    /// A secondary resource's vectors do not match the problem dimensions.
    Resource(ResourceError),
    /// The instance overflows the graph's `u32` CSR indexing: more than
    /// `u32::MAX / 2` pairs (the `2·m` half-edge slots would wrap the
    /// offset accumulator and the `EdgeId` casts) or more than `u32::MAX`
    /// objects. Before this guard the build silently wrapped.
    GraphTooLarge {
        /// Object count of the rejected instance.
        objects: usize,
        /// Pair count of the rejected instance.
        pairs: usize,
    },
    /// A replica spec asks for more copies per object than the domain
    /// tree has leaf domains, so the spread invariant (no two replicas
    /// of an object in the same leaf domain) can never hold.
    ReplicaSpread {
        /// Requested copies per object.
        replicas: usize,
        /// Leaf domains available in the tree.
        domains: usize,
    },
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::UnknownObject(o) => write!(f, "pair references unknown object {o}"),
            ProblemError::DuplicateName(name) => {
                write!(
                    f,
                    "duplicate object name {name:?} (hash placement would collide)"
                )
            }
            ProblemError::SelfPair(o) => write!(f, "pair connects {o} to itself"),
            ProblemError::InvalidNumber(msg) => write!(f, "invalid number: {msg}"),
            ProblemError::NoNodes => f.write_str("problem has no nodes"),
            ProblemError::ZeroSizeObject(o) => write!(f, "object {o} has size zero"),
            ProblemError::ZeroCapacity => f.write_str("every node has zero capacity"),
            ProblemError::Overflow(total) => write!(f, "{total} overflows"),
            ProblemError::Resource(e) => write!(f, "invalid resource: {e}"),
            ProblemError::GraphTooLarge { objects, pairs } => write!(
                f,
                "instance too large for u32 CSR indexing: {pairs} pairs over \
                 {objects} objects (limits: {} pairs, {} objects)",
                u32::MAX / 2,
                u32::MAX
            ),
            ProblemError::ReplicaSpread { replicas, domains } => write!(
                f,
                "cannot spread {replicas} replicas across {domains} leaf \
                 domains (need replicas <= domains)"
            ),
        }
    }
}

impl std::error::Error for ProblemError {}

/// An instance of the CCA problem: objects with sizes, nodes with
/// capacities, and correlated pairs (paper Figure 3).
///
/// Every capacity dimension is one entry of one table
/// ([`CcaProblem::dimensions`]): entry 0 is storage, named `"storage"`,
/// with the object sizes as its demands and the node capacities as its
/// capacities; each secondary resource (paper §3.3) follows in
/// registration order.
///
/// Build instances with [`CcaProblem::builder`]:
///
/// ```
/// use cca_core::CcaProblem;
///
/// # fn main() -> Result<(), cca_core::ProblemError> {
/// let mut b = CcaProblem::builder();
/// let car = b.add_object("car", 100);
/// let dealer = b.add_object("dealer", 80);
/// let software = b.add_object("software", 120);
/// b.add_pair(car, dealer, 0.3, 90.0)?;
/// b.add_pair(car, software, 0.01, 100.0)?;
/// let problem = b.uniform_capacities(2, 200).build()?;
/// assert_eq!(problem.num_objects(), 3);
/// assert_eq!(problem.num_nodes(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CcaProblem {
    names: Vec<String>,
    /// The capacity table: storage, then each secondary resource.
    dims: Vec<Resource>,
    pairs: Vec<Pair>,
    graph: CorrelationGraph,
    // Opt-in shard count of the bulk folds (None by default — the flat
    // fold is the one-shard case). Carried by `restrict_to` /
    // `prune_pairs`.
    sharded: Option<ShardedGraph>,
}

impl CcaProblem {
    /// Starts building a problem.
    #[must_use]
    pub fn builder() -> CcaProblemBuilder {
        CcaProblemBuilder::default()
    }

    /// Number of objects `|T|`.
    #[must_use]
    pub fn num_objects(&self) -> usize {
        self.dims[0].demands().len()
    }

    /// Number of nodes `|N|`.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.dims[0].capacities().len()
    }

    /// Size `s(i)` of object `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn size(&self, i: ObjectId) -> u64 {
        self.dims[0].demand(i.index())
    }

    /// Name of object `i` (used by hash-based placement).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn name(&self, i: ObjectId) -> &str {
        &self.names[i.index()]
    }

    /// Capacity `c(k)` of node `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn capacity(&self, k: usize) -> u64 {
        self.dims[0].capacity(k)
    }

    /// All correlated pairs (the sparse set `E`).
    #[must_use]
    pub fn pairs(&self) -> &[Pair] {
        &self.pairs
    }

    /// The CSR adjacency view of the pair list, kept in lock-step with
    /// [`CcaProblem::pairs`]: edge `e` of the graph is `pairs()[e]`. Every
    /// solve layer walks this instead of rescanning the flat list.
    #[must_use]
    pub fn graph(&self) -> &CorrelationGraph {
        &self.graph
    }

    /// Enables the sharded graph view: `shard_count` contiguous
    /// [`crate::EdgeId`] slices of the graph (the count clamped to
    /// `[1, num_objects]`); `threads` is unused.
    ///
    /// Once enabled, the bulk `eval_*` folds (`eval_cost`,
    /// `eval_cost_batch`, `eval_cost_replicas`) run shard-parallel, with
    /// the flat folds' bits; [`CcaProblem::graph`] and everything built
    /// on it are unaffected. [`CcaProblem::restrict_to`] and
    /// [`CcaProblem::prune_pairs`] carry the shard count.
    pub fn set_sharding(&mut self, shard_count: usize, _threads: usize) {
        self.sharded = Some(ShardedGraph::new(&self.graph, shard_count));
    }

    /// The sharded graph view, if [`CcaProblem::set_sharding`] was
    /// called.
    #[must_use]
    pub fn sharded(&self) -> Option<&ShardedGraph> {
        self.sharded.as_ref()
    }

    /// The CCA objective of `placement`: shard-parallel on the sharded
    /// view when sharding is enabled ([`ShardedGraph::cost`]), else the
    /// flat serial [`CorrelationGraph::cost`]. Both run the graph's one
    /// edge fold and return the same bits for every shard and thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if the placement covers fewer objects than the problem.
    #[must_use]
    pub fn eval_cost(&self, placement: &Placement, threads: usize) -> f64 {
        match &self.sharded {
            Some(s) => s.cost(&self.graph, placement, threads),
            None => self.graph.cost(placement),
        }
    }

    /// Batched candidate scoring, shard-parallel when sharding is enabled
    /// ([`ShardedGraph::cost_batch`]), else the flat serial
    /// [`CorrelationGraph::cost_batch`]. Column `c` is bit-identical to
    /// `cost(batch.placement(c))` either way.
    ///
    /// # Panics
    ///
    /// Panics if the batch covers fewer objects than the problem.
    #[must_use]
    pub fn eval_cost_batch(&self, batch: &PlacementBatch, threads: usize) -> Vec<f64> {
        match &self.sharded {
            Some(s) => s.cost_batch(&self.graph, batch, threads),
            None => self.graph.cost_batch(batch),
        }
    }

    /// Replica-aware cost, shard-parallel when sharding is enabled
    /// ([`ShardedGraph::cost_replicas`]), else the flat replica fold
    /// ([`CorrelationGraph::cost_replicas`]). With `r = 1` both are the
    /// single-copy fold, so this is bit-identical to
    /// [`CcaProblem::eval_cost`] on the primary column.
    ///
    /// # Panics
    ///
    /// Panics if the placement covers fewer objects than the problem.
    #[must_use]
    pub fn eval_cost_replicas(&self, rp: &ReplicaPlacement, threads: usize) -> f64 {
        match &self.sharded {
            Some(s) => s.cost_replicas(&self.graph, rp, threads),
            None => self.graph.cost_replicas(rp),
        }
    }

    /// [`CorrelationGraph::replica_move_delta`]: one walk of `i`'s CSR
    /// row.
    ///
    /// # Panics
    ///
    /// Panics if `i`, `j`, or `target` is out of range.
    #[must_use]
    pub fn eval_replica_move_delta(
        &self,
        rp: &ReplicaPlacement,
        i: ObjectId,
        j: usize,
        target: usize,
    ) -> f64 {
        self.graph.replica_move_delta(rp, i, j, target)
    }

    /// Every-target replica move deltas: `deltas[t]` receives the delta
    /// of moving replica `j` of `i` to node `t`, from one walk of `i`'s
    /// CSR row. `deltas[t]` bit-equals
    /// [`CcaProblem::eval_replica_move_delta`]`(rp, i, j, t)`, and the
    /// copy's own node reads exactly `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range, or if `deltas.len()` is not
    /// the node count.
    pub fn eval_replica_move_deltas(
        &self,
        rp: &ReplicaPlacement,
        i: ObjectId,
        j: usize,
        deltas: &mut [f64],
    ) {
        self.graph.replica_move_deltas(rp, i, j, deltas);
    }

    /// The capacity table: one entry per capacity dimension, storage
    /// (named `"storage"`) first, then each secondary resource in
    /// registration order. Every fit test, load fold and LP capacity row
    /// walks it.
    #[must_use]
    pub fn dimensions(&self) -> &[Resource] {
        &self.dims
    }

    /// Secondary capacity constraints (paper 3.3): the capacity table
    /// after storage; empty in the base formulation.
    #[must_use]
    pub fn resources(&self) -> &[Resource] {
        &self.dims[1..]
    }

    /// Iterator over object ids.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> {
        (0..self.num_objects() as u32).map(ObjectId)
    }

    /// Total object size `S = Σ s(i)`.
    #[must_use]
    pub fn total_size(&self) -> u64 {
        self.dims[0].total_demand()
    }

    /// Total objective weight `Σ r·w` over all edges (the graph's
    /// snapped weights) — the communication cost of a placement that
    /// splits every pair, and the normalisation constant for "fraction of
    /// cost saved".
    #[must_use]
    pub fn total_pair_weight(&self) -> f64 {
        self.graph.edges().map(|e| e.weight).sum()
    }

    /// Returns `true` if, in every dimension of the capacity table, the
    /// total demand is at most the total capacity (a necessary
    /// feasibility condition).
    #[must_use]
    pub fn aggregate_capacity_suffices(&self) -> bool {
        (self.dims.iter()).all(|d| d.total_demand() <= d.total_capacity())
    }

    /// Restriction of this problem to `keep` (in the given order): returns
    /// the subproblem plus the mapping from new ids to original ids. Pairs
    /// with either endpoint outside `keep` are dropped. Node capacities are
    /// copied unchanged in every dimension.
    ///
    /// # Panics
    ///
    /// Panics if `keep` contains duplicates or unknown objects.
    #[must_use]
    pub fn restrict_to(&self, keep: &[ObjectId]) -> (CcaProblem, Vec<ObjectId>) {
        let mut old_to_new: HashMap<ObjectId, ObjectId> = HashMap::with_capacity(keep.len());
        for (new_idx, &old) in keep.iter().enumerate() {
            assert!(old.index() < self.num_objects(), "unknown object {old}");
            let prev = old_to_new.insert(old, ObjectId(new_idx as u32));
            assert!(prev.is_none(), "duplicate object {old} in keep list");
        }
        let names = keep
            .iter()
            .map(|&o| self.names[o.index()].clone())
            .collect();
        let pairs: Vec<Pair> = self
            .pairs
            .iter()
            .filter_map(|p| {
                let a = old_to_new.get(&p.a)?;
                let b = old_to_new.get(&p.b)?;
                Some(Pair {
                    a: *a.min(b),
                    b: *a.max(b),
                    correlation: p.correlation,
                    comm_cost: p.comm_cost,
                })
            })
            .collect();
        // NOTE: the restricted pair list stays in *storage order* of the
        // parent (filtered, endpoints remapped) — it is NOT re-sorted by
        // the new (a, b). The LP column order rides on this, so the graph
        // is rebuilt over the list as-is, with the parent's quantum.
        let graph = CorrelationGraph::with_quantum(keep.len(), &pairs, self.graph.quantum());
        // A sharded parent yields a sharded subproblem.
        let sharded = self
            .sharded
            .as_ref()
            .map(|s| ShardedGraph::new(&graph, s.shard_count()));
        (
            CcaProblem {
                names,
                dims: self.dims.iter().map(|d| d.restrict(keep)).collect(),
                pairs,
                graph,
                sharded,
            },
            keep.to_vec(),
        )
    }

    /// Returns a copy with the node capacities of storage (dimension 0)
    /// replaced.
    ///
    /// # Errors
    ///
    /// [`ProblemError::NoNodes`] if `capacities` is empty,
    /// [`ProblemError::Resource`] if the problem has secondary resources
    /// and `capacities` changes its node count, and
    /// [`ProblemError::Overflow`] if the capacities' total does not fit a
    /// `u64`.
    pub fn with_capacities(&self, capacities: Vec<u64>) -> Result<CcaProblem, ProblemError> {
        if capacities.is_empty() {
            return Err(ProblemError::NoNodes);
        }
        for res in self.resources() {
            res.validate(self.num_objects(), capacities.len())
                .map_err(ProblemError::Resource)?;
        }
        let mut problem = self.clone();
        problem.dims[0].set_capacities(capacities);
        check_totals(&problem.dims)?;
        Ok(problem)
    }

    /// Keeps only the `max_pairs` heaviest pairs by objective weight
    /// (the graph's snapped weights, ties by `(a, b)`), per the paper's
    /// sparse-`E` assumption (§3.1). Returns the number of pairs dropped.
    pub fn prune_pairs(&mut self, max_pairs: usize) -> usize {
        if self.pairs.len() <= max_pairs {
            return 0;
        }
        let dropped = self.pairs.len() - max_pairs;
        // The survivors stay in weight order (NOT re-sorted by (a, b)),
        // and the CSR view is rebuilt over that exact order with the
        // same quantum.
        self.pairs = self.graph.edges_by_weight()[..max_pairs]
            .iter()
            .map(|e| self.pairs[e.index()])
            .collect();
        self.graph =
            CorrelationGraph::with_quantum(self.num_objects(), &self.pairs, self.graph.quantum());
        if let Some(s) = &self.sharded {
            self.sharded = Some(ShardedGraph::new(&self.graph, s.shard_count()));
        }
        dropped
    }
}

/// Checks that every total a capacity check sums fits a `u64`: each
/// dimension's demands, then its capacities, in table order. Storage's
/// totals are the "total size" and the "total capacity".
fn check_totals(dims: &[Resource]) -> Result<(), ProblemError> {
    let fits = |values: &[u64]| {
        values
            .iter()
            .try_fold(0u64, |s, &v| s.checked_add(v))
            .is_some()
    };
    for (d, dim) in dims.iter().enumerate() {
        let (demand, capacity) = match d {
            0 => ("total size".to_string(), "total capacity".to_string()),
            _ => (
                format!("total {} demand", dim.name()),
                format!("total {} capacity", dim.name()),
            ),
        };
        if !fits(dim.demands()) {
            return Err(ProblemError::Overflow(demand));
        }
        if !fits(dim.capacities()) {
            return Err(ProblemError::Overflow(capacity));
        }
    }
    Ok(())
}

/// Builder for [`CcaProblem`].
#[derive(Debug, Clone, Default)]
pub struct CcaProblemBuilder {
    names: Vec<String>,
    name_set: HashSet<String>,
    sizes: Vec<u64>,
    capacities: Vec<u64>,
    pair_weights: HashMap<(ObjectId, ObjectId), (f64, f64)>,
    resources: Vec<Resource>,
    error: Option<ProblemError>,
}

impl CcaProblemBuilder {
    /// Adds an object of size `size` and returns its id. `name` feeds
    /// hash-based placement and diagnostics.
    ///
    /// Names must be unique: a duplicate would silently collide
    /// hash-placement buckets, so it is recorded as a
    /// [`ProblemError::DuplicateName`] and surfaced by
    /// [`CcaProblemBuilder::build`].
    pub fn add_object(&mut self, name: impl Into<String>, size: u64) -> ObjectId {
        let id = ObjectId(self.sizes.len() as u32);
        let name = name.into();
        if !self.name_set.insert(name.clone()) && self.error.is_none() {
            self.error = Some(ProblemError::DuplicateName(name.clone()));
        }
        self.names.push(name);
        self.sizes.push(size);
        id
    }

    /// Records a correlated pair. Repeated `(a, b)` pairs accumulate their
    /// correlations (keeping the maximum communication cost), matching how
    /// correlations add over disjoint query populations.
    ///
    /// # Errors
    ///
    /// Returns an error for self-pairs, unknown objects, or negative /
    /// non-finite values.
    pub fn add_pair(
        &mut self,
        a: ObjectId,
        b: ObjectId,
        correlation: f64,
        comm_cost: f64,
    ) -> Result<(), ProblemError> {
        if a == b {
            return Err(ProblemError::SelfPair(a));
        }
        for o in [a, b] {
            if o.index() >= self.sizes.len() {
                return Err(ProblemError::UnknownObject(o));
            }
        }
        if !(correlation.is_finite() && correlation >= 0.0) {
            return Err(ProblemError::InvalidNumber(format!(
                "correlation of ({a},{b}) is {correlation}"
            )));
        }
        if !(comm_cost.is_finite() && comm_cost >= 0.0) {
            return Err(ProblemError::InvalidNumber(format!(
                "comm cost of ({a},{b}) is {comm_cost}"
            )));
        }
        let key = (a.min(b), a.max(b));
        let entry = self.pair_weights.entry(key).or_insert((0.0, 0.0));
        entry.0 += correlation;
        entry.1 = entry.1.max(comm_cost);
        Ok(())
    }

    /// Gives the problem `num_nodes` nodes of equal `capacity`.
    pub fn uniform_capacities(&mut self, num_nodes: usize, capacity: u64) -> &mut Self {
        self.capacities = vec![capacity; num_nodes];
        self
    }

    /// Gives the problem explicit per-node capacities.
    pub fn capacities(&mut self, capacities: Vec<u64>) -> &mut Self {
        self.capacities = capacities;
        self
    }

    /// Registers a secondary capacity constraint (paper 3.3), e.g.
    /// network bandwidth or CPU. Vector lengths are validated at
    /// [`CcaProblemBuilder::build`].
    pub fn add_resource(&mut self, resource: Resource) -> &mut Self {
        self.resources.push(resource);
        self
    }

    /// Finalises the problem.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::NoNodes`] if no capacities were set,
    /// [`ProblemError::InvalidNumber`] naming the smallest pair whose
    /// accumulated correlation or weight `r·w` is not finite,
    /// [`ProblemError::Overflow`] naming the first total of sizes,
    /// capacities, or a resource's demands or capacities that does not
    /// fit a `u64`, or the total pair weight when it is not finite, or
    /// any error recorded during building.
    pub fn build(&mut self) -> Result<CcaProblem, ProblemError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if self.capacities.is_empty() {
            return Err(ProblemError::NoNodes);
        }
        if let Some(i) = self.sizes.iter().position(|&s| s == 0) {
            return Err(ProblemError::ZeroSizeObject(ObjectId(i as u32)));
        }
        if self.capacities.iter().all(|&c| c == 0) {
            return Err(ProblemError::ZeroCapacity);
        }
        // Repeated pairs add their correlations, and `r·w` can overflow
        // even when both are finite.
        let overflow = (self.pair_weights.iter())
            .filter(|(_, &(r, w))| !(r * w).is_finite())
            .min_by_key(|(&key, _)| key);
        if let Some((&(a, b), &(r, w))) = overflow {
            return Err(ProblemError::InvalidNumber(if r.is_finite() {
                format!("weight of ({a},{b}) is {}", r * w)
            } else {
                format!("correlation of ({a},{b}) is {r}")
            }));
        }
        let mut pairs: Vec<Pair> = self
            .pair_weights
            .iter()
            .filter(|&(_, &(r, w))| r > 0.0 && w > 0.0)
            .map(|(&(a, b), &(correlation, comm_cost))| Pair {
                a,
                b,
                correlation,
                comm_cost,
            })
            .collect();
        pairs.sort_unstable_by_key(|p| (p.a, p.b));
        for res in &self.resources {
            if let Err(e) = res.validate(self.sizes.len(), self.capacities.len()) {
                return Err(ProblemError::Resource(e));
            }
        }
        let storage = Resource::new("storage", self.sizes.clone(), self.capacities.clone());
        let dims: Vec<Resource> = std::iter::once(storage)
            .chain(self.resources.iter().cloned())
            .collect();
        check_totals(&dims)?;
        let graph = CorrelationGraph::try_build(self.sizes.len(), &pairs)?;
        Ok(CcaProblem {
            names: self.names.clone(),
            dims,
            pairs,
            graph,
            sharded: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CcaProblem {
        let mut b = CcaProblem::builder();
        let o0 = b.add_object("alpha", 10);
        let o1 = b.add_object("beta", 20);
        let o2 = b.add_object("gamma", 30);
        b.add_pair(o0, o1, 0.5, 10.0).unwrap();
        b.add_pair(o2, o0, 0.25, 8.0).unwrap();
        b.uniform_capacities(2, 40).build().unwrap()
    }

    #[test]
    fn accessors() {
        let p = sample();
        assert_eq!(p.num_objects(), 3);
        assert_eq!(p.num_nodes(), 2);
        assert_eq!(p.size(ObjectId(1)), 20);
        assert_eq!(p.capacity(0), 40);
        assert_eq!(p.total_size(), 60);
        assert_eq!(p.name(ObjectId(2)), "gamma");
        assert!(p.aggregate_capacity_suffices());
        assert!((p.total_pair_weight() - (5.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn capacity_table_puts_storage_first() {
        let build = |bw_caps: Vec<u64>| {
            let mut b = CcaProblem::builder();
            for (i, size) in [10, 20, 30].into_iter().enumerate() {
                b.add_object(format!("o{i}"), size);
            }
            b.uniform_capacities(2, 40)
                .add_resource(Resource::new("bw", vec![1, 2, 3], bw_caps))
                .build()
                .unwrap()
        };
        let p = build(vec![5, 4]);
        let names: Vec<&str> = p.dimensions().iter().map(Resource::name).collect();
        assert_eq!(names, ["storage", "bw"]);
        assert_eq!(p.resources(), &p.dimensions()[1..]);
        assert_eq!(p.dimensions()[0].demand(2), p.size(ObjectId(2)));
        assert_eq!(p.dimensions()[0].capacity(1), p.capacity(1));
        assert!(p.aggregate_capacity_suffices());
        // Storage fits in aggregate, bandwidth (6 > 5) does not.
        assert!(!build(vec![3, 2]).aggregate_capacity_suffices());
        // `with_capacities` replaces storage's capacities only; `restrict_to`
        // restricts every dimension.
        let wider = p.with_capacities(vec![7, 8]).unwrap();
        assert_eq!(wider.resources(), p.resources());
        assert_eq!((wider.capacity(0), wider.capacity(1)), (7, 8));
        let (sub, _) = p.restrict_to(&[ObjectId(2), ObjectId(0)]);
        let demands = |d: &Resource| [0, 1].map(|i| d.demand(i));
        assert_eq!(demands(&sub.dimensions()[0]), [30, 10]);
        assert_eq!(demands(&sub.dimensions()[1]), [3, 1]);
        assert_eq!(sub.total_size(), 40);
    }

    #[test]
    fn pairs_are_normalised_and_sorted() {
        let p = sample();
        assert_eq!(p.pairs().len(), 2);
        for pair in p.pairs() {
            assert!(pair.a < pair.b);
        }
        assert!(p
            .pairs()
            .windows(2)
            .all(|w| (w[0].a, w[0].b) < (w[1].a, w[1].b)));
    }

    #[test]
    fn duplicate_pairs_accumulate_correlation() {
        let mut b = CcaProblem::builder();
        let a = b.add_object("a", 1);
        let c = b.add_object("b", 1);
        b.add_pair(a, c, 0.1, 5.0).unwrap();
        b.add_pair(c, a, 0.2, 3.0).unwrap();
        let p = b.uniform_capacities(1, 10).build().unwrap();
        assert_eq!(p.pairs().len(), 1);
        assert!((p.pairs()[0].correlation - 0.3).abs() < 1e-12);
        assert!((p.pairs()[0].comm_cost - 5.0).abs() < 1e-12);
    }

    #[test]
    fn overflowing_pair_weights_are_rejected() {
        let invalid = |msg: &str| ProblemError::InvalidNumber(msg.into());
        // Finite correlation and cost whose product `r·w` overflows.
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..4).map(|i| b.add_object(format!("o{i}"), 1)).collect();
        b.add_pair(o[3], o[2], 1e300, 1e300).unwrap();
        b.uniform_capacities(2, 10);
        let err = b.clone().build().unwrap_err();
        assert_eq!(err, invalid("weight of (obj2,obj3) is inf"));
        // Repeated pairs whose correlations add up past f64::MAX; the
        // error names the smallest failing pair whatever the insertion order.
        for (first, second) in [(0, 1), (1, 0)] {
            let mut b = b.clone();
            b.add_pair(o[first], o[second], f64::MAX, 0.5).unwrap();
            b.add_pair(o[second], o[first], f64::MAX, 0.5).unwrap();
            let err = b.build().unwrap_err();
            assert_eq!(err, invalid("correlation of (obj0,obj1) is inf"));
        }
    }

    #[test]
    fn builder_rejects_bad_pairs() {
        let mut b = CcaProblem::builder();
        let a = b.add_object("a", 1);
        assert!(matches!(
            b.add_pair(a, a, 0.1, 1.0),
            Err(ProblemError::SelfPair(_))
        ));
        assert!(matches!(
            b.add_pair(a, ObjectId(9), 0.1, 1.0),
            Err(ProblemError::UnknownObject(_))
        ));
        assert!(matches!(
            b.add_pair(a, a, f64::NAN, 1.0),
            Err(ProblemError::SelfPair(_))
        ));
        let c = b.add_object("c", 1);
        assert!(matches!(
            b.add_pair(a, c, -0.5, 1.0),
            Err(ProblemError::InvalidNumber(_))
        ));
        assert!(matches!(
            b.add_pair(a, c, 0.5, f64::INFINITY),
            Err(ProblemError::InvalidNumber(_))
        ));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut b = CcaProblem::builder();
        let a = b.add_object("same", 1);
        let c = b.add_object("same", 2);
        assert_ne!(a, c, "ids still advance so pair recording stays sane");
        assert!(matches!(
            b.uniform_capacities(2, 10).build(),
            Err(ProblemError::DuplicateName(name)) if name == "same"
        ));
    }

    #[test]
    fn graph_tracks_pairs_through_restrict_and_prune() {
        let p = sample();
        assert_eq!(p.graph().num_edges(), p.pairs().len());
        let (sub, _) = p.restrict_to(&[ObjectId(2), ObjectId(0)]);
        assert_eq!(sub.graph().num_edges(), sub.pairs().len());
        assert_eq!(sub.graph().num_objects(), 2);
        let mut pruned = sample();
        pruned.prune_pairs(1);
        assert_eq!(pruned.graph().num_edges(), 1);
        let edge = pruned.graph().edge(crate::graph::EdgeId(0));
        assert_eq!((edge.a, edge.b), (pruned.pairs()[0].a, pruned.pairs()[0].b));
    }

    #[test]
    fn build_without_nodes_fails() {
        let mut b = CcaProblem::builder();
        b.add_object("a", 1);
        assert!(matches!(b.build(), Err(ProblemError::NoNodes)));
    }

    #[test]
    fn build_rejects_zero_size_objects() {
        let mut b = CcaProblem::builder();
        b.add_object("a", 1);
        b.add_object("ghost", 0);
        assert!(matches!(
            b.uniform_capacities(2, 10).build(),
            Err(ProblemError::ZeroSizeObject(ObjectId(1)))
        ));
    }

    #[test]
    fn build_rejects_all_zero_capacities() {
        let mut b = CcaProblem::builder();
        b.add_object("a", 1);
        assert!(matches!(
            b.uniform_capacities(3, 0).build(),
            Err(ProblemError::ZeroCapacity)
        ));
        // A single dead node among live ones stays legal: it models a
        // failed node the resilience layer routes around.
        let mut b = CcaProblem::builder();
        b.add_object("a", 1);
        assert!(b.capacities(vec![0, 10]).build().is_ok());
    }

    #[test]
    fn totals_that_overflow_a_u64_are_rejected() {
        let build = |sizes: &[u64], caps: Vec<u64>, res: Option<Resource>| {
            let mut b = CcaProblem::builder();
            for (i, &s) in sizes.iter().enumerate() {
                b.add_object(format!("o{i}"), s);
            }
            b.capacities(caps);
            if let Some(r) = res {
                b.add_resource(r);
            }
            b.build()
        };
        let half = u64::MAX / 2 + 1;
        let overflow = |built: Result<CcaProblem, ProblemError>| match built {
            Err(ProblemError::Overflow(total)) => total,
            other => panic!("expected an overflow error, got {:?}", other.err()),
        };
        assert_eq!(overflow(build(&[half, half], vec![1], None)), "total size");
        assert_eq!(
            overflow(build(&[1], vec![u64::MAX, 1], None)),
            "total capacity"
        );
        let bw = |demands, caps| Some(Resource::new("bw", demands, caps));
        let demand = build(&[1, 1], vec![1], bw(vec![half, half], vec![1]));
        assert_eq!(overflow(demand), "total bw demand");
        let capacity = build(&[1], vec![1, 1], bw(vec![1], vec![half, half]));
        assert_eq!(overflow(capacity), "total bw capacity");
        let msg = ProblemError::Overflow("total size".into()).to_string();
        assert_eq!(msg, "total size overflows");
        // The largest totals that fit still build.
        assert!(build(&[u64::MAX - 1, 1], vec![u64::MAX], None).is_ok());
    }

    #[test]
    fn zero_weight_pairs_are_dropped() {
        let mut b = CcaProblem::builder();
        let a = b.add_object("a", 1);
        let c = b.add_object("c", 1);
        b.add_pair(a, c, 0.0, 5.0).unwrap();
        let p = b.uniform_capacities(1, 10).build().unwrap();
        assert!(p.pairs().is_empty());
    }

    #[test]
    fn restrict_to_remaps_pairs() {
        let p = sample();
        let (sub, mapping) = p.restrict_to(&[ObjectId(2), ObjectId(0)]);
        assert_eq!(sub.num_objects(), 2);
        assert_eq!(mapping, vec![ObjectId(2), ObjectId(0)]);
        assert_eq!(sub.size(ObjectId(0)), 30); // gamma
        assert_eq!(sub.pairs().len(), 1); // only (alpha,gamma) survives
        let pair = sub.pairs()[0];
        assert!((pair.weight() - 2.0).abs() < 1e-12);
        assert_eq!(sub.name(ObjectId(1)), "alpha");
    }

    #[test]
    fn prune_pairs_keeps_heaviest() {
        let mut p = sample();
        let dropped = p.prune_pairs(1);
        assert_eq!(dropped, 1);
        assert_eq!(p.pairs().len(), 1);
        assert!((p.pairs()[0].weight() - 5.0).abs() < 1e-12);
        assert_eq!(p.prune_pairs(5), 0);
    }

    #[test]
    fn eval_dispatch_matches_flat_graph_bits() {
        let mut p = sample();
        let pl = Placement::new(vec![0, 1, 0], 2);
        let flat_cost = p.graph().cost(&pl);
        // Disabled: eval_* are the flat walks.
        assert_eq!(p.eval_cost(&pl, 4).to_bits(), flat_cost.to_bits());
        assert!(p.sharded().is_none());
        // Enabled: the same bits for any shard count and thread count.
        for shards in [1, 2, 3] {
            p.set_sharding(shards, 2);
            assert_eq!(p.sharded().unwrap().shard_count(), shards);
            assert_eq!(p.eval_cost(&pl, 1).to_bits(), flat_cost.to_bits());
            assert_eq!(p.eval_cost(&pl, 4).to_bits(), flat_cost.to_bits());
            let batch = PlacementBatch::from_placements(std::slice::from_ref(&pl));
            assert_eq!(
                p.eval_cost_batch(&batch, 2)[0].to_bits(),
                p.graph().cost_batch(&batch)[0].to_bits()
            );
            let rp = ReplicaPlacement::from_primary(pl.clone());
            let mut deltas = [f64::NAN; 2];
            for i in 0..3 {
                let i = ObjectId(i);
                p.eval_replica_move_deltas(&rp, i, 0, &mut deltas);
                for target in 0..2 {
                    let flat = p.graph().replica_move_delta(&rp, i, 0, target);
                    assert_eq!(
                        p.eval_replica_move_delta(&rp, i, 0, target).to_bits(),
                        flat.to_bits()
                    );
                    assert_eq!(deltas[target].to_bits(), flat.to_bits());
                }
            }
        }
    }

    #[test]
    fn sharding_propagates_through_restrict_and_prune() {
        let mut p = sample();
        p.set_sharding(2, 1);
        let (sub, _) = p.restrict_to(&[ObjectId(2), ObjectId(0)]);
        let sub_sharded = sub.sharded().expect("restrict_to must keep sharding");
        assert_eq!(sub_sharded.shard_count(), 2);
        let pl = Placement::new(vec![0, 1], 2);
        assert_eq!(
            sub.eval_cost(&pl, 2).to_bits(),
            sub.graph().cost(&pl).to_bits()
        );
        // The count is carried, clamped to the subproblem's objects.
        let (one, _) = p.restrict_to(&[ObjectId(1)]);
        assert_eq!(one.sharded().unwrap().shard_count(), 1);
        p.prune_pairs(1);
        let pruned_sharded = p.sharded().expect("prune_pairs must keep sharding");
        assert_eq!(pruned_sharded.shard_count(), 2);
        // An unsharded problem stays unsharded through both paths.
        let mut q = sample();
        assert!(q.restrict_to(&[ObjectId(0)]).0.sharded().is_none());
        q.prune_pairs(1);
        assert!(q.sharded().is_none());
    }

    #[test]
    fn restricted_and_pruned_weights_are_the_parents() {
        // Tenths are not binary fractions, so most weights snap.
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..6).map(|i| b.add_object(format!("o{i}"), 1)).collect();
        for (i, &(a, d)) in [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5), (1, 4)]
            .iter()
            .enumerate()
        {
            let tenths = f64::from(i as u32 % 9 + 1) / 10.0;
            b.add_pair(o[a], o[d], tenths, 3.7 * (i + 1) as f64)
                .unwrap();
        }
        let p = b.uniform_capacities(2, 6).build().unwrap();
        let parent: HashMap<(ObjectId, ObjectId), u64> = p
            .graph()
            .edges()
            .map(|e| ((e.a, e.b), e.weight.to_bits()))
            .collect();
        assert!(p
            .pairs()
            .iter()
            .any(|pair| { parent[&(pair.a, pair.b)] != pair.weight().to_bits() }));
        let keep = [5, 1, 4, 0, 2].map(ObjectId);
        let (sub, ids) = p.restrict_to(&keep);
        assert_eq!(sub.graph().quantum(), p.graph().quantum());
        for e in sub.graph().edges() {
            let (a, d) = (ids[e.a.index()], ids[e.b.index()]);
            assert_eq!(e.weight.to_bits(), parent[&(a.min(d), a.max(d))]);
        }
        let mut pruned = p.clone();
        pruned.prune_pairs(4);
        assert_eq!(pruned.graph().quantum(), p.graph().quantum());
        let kept: Vec<u64> = pruned.graph().edges().map(|e| e.weight.to_bits()).collect();
        let heaviest: Vec<u64> = p.graph().edges_by_weight()[..4]
            .iter()
            .map(|&e| p.graph().edge_weight(e).to_bits())
            .collect();
        assert_eq!(kept, heaviest);
        assert_eq!(
            pruned.total_pair_weight(),
            heaviest.iter().map(|&w| f64::from_bits(w)).sum::<f64>()
        );
    }

    #[test]
    fn non_finite_total_weight_is_overflow() {
        // Each weight is finite; their total is not.
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..3).map(|i| b.add_object(format!("o{i}"), 1)).collect();
        b.add_pair(o[0], o[1], 1.0, f64::MAX).unwrap();
        b.add_pair(o[1], o[2], 1.0, f64::MAX).unwrap();
        assert_eq!(
            b.uniform_capacities(2, 10).build().unwrap_err(),
            ProblemError::Overflow("total pair weight".into())
        );
    }

    #[test]
    fn with_capacities_errors_are_typed() {
        let p = sample();
        assert_eq!(
            p.with_capacities(vec![u64::MAX, 1]).unwrap_err(),
            ProblemError::Overflow("total capacity".into())
        );
        assert_eq!(
            p.with_capacities(Vec::new()).unwrap_err(),
            ProblemError::NoNodes
        );
        let bw = Resource::new("bw", vec![1, 1, 1], vec![5, 5]);
        let mut b = CcaProblem::builder();
        for i in 0..3 {
            b.add_object(format!("o{i}"), 1);
        }
        let with_bw = b
            .uniform_capacities(2, 10)
            .add_resource(bw)
            .build()
            .unwrap();
        assert!(matches!(
            with_bw.with_capacities(vec![10; 3]),
            Err(ProblemError::Resource(ResourceError::CapacityLength {
                expected: 3,
                got: 2
            }))
        ));
        let wider = p.with_capacities(vec![7, 8, 9]).unwrap();
        assert_eq!((wider.num_nodes(), wider.capacity(2)), (3, 9));
    }

    #[test]
    #[should_panic(expected = "duplicate object")]
    fn restrict_rejects_duplicates() {
        let p = sample();
        let _ = p.restrict_to(&[ObjectId(0), ObjectId(0)]);
    }
}
