//! Capacity repair for rounded placements.
//!
//! The paper's Theorem 3 bounds only the **expected** per-node load of a
//! rounded placement, and the LP relaxation is degenerate in a way that
//! makes real overloads routine: giving every object the identical
//! fractional row `x_{i,k} = c(k) / Σ c` is feasible whenever the instance
//! is feasible at all, zeroes every `z_{i,j}`, and is therefore always
//! optimal — and Algorithm 2.1 never splits identical rows, so whole
//! correlation components land on single nodes no matter their size. (See
//! DESIGN.md §"Reproduction findings".) The paper's remedy is
//! "conservative capacities" tolerance (§2.3); a usable system needs an
//! explicit repair stage, which this module provides:
//!
//! 1. **Cluster moves** — a connected group of objects co-located on an
//!    overloaded node can often move wholesale for free (its cut to the
//!    rest of the node is zero when it is an entire correlation
//!    component);
//! 2. **Single-object eviction** — when no whole cluster fits anywhere,
//!    evict the object with the least communication-cost increase per byte
//!    freed;
//! 3. **Improvement sweeps** — the `r = 1` polish of [`crate::migrate`]
//!    on the repair's own capacity ledger: a bounded local search that
//!    re-homes objects when a capacity-respecting move strictly reduces
//!    cost, undoing greedy eviction mistakes.
//!
//! All reported experiment costs are measured *after* repair, so the
//! comparison against the baselines stays honest.

use crate::graph::CorrelationGraph;
use crate::migrate::{polish, Loads, MigrateOptions};
use crate::placement::Placement;
use crate::problem::{CcaProblem, ObjectId};
use crate::replica::{pick_copy_node, DomainTree, ReplicaPlacement};

/// Outcome of [`repair_capacity`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairOutcome {
    /// Number of objects moved (cluster moves count each member).
    pub moves: usize,
    /// Whether all nodes ended within `capacity * slack`.
    pub feasible: bool,
}

/// Repair state. An eviction step touches only the source node's
/// members, through index-addressed work arrays that live across steps.
struct Repairer<'a> {
    problem: &'a CcaProblem,
    graph: &'a CorrelationGraph,
    /// The placement under repair as its `r = 1` copy set: the eviction
    /// steps and the polish move the same copies.
    rp: ReplicaPlacement,
    /// Every node's load in every dimension (storage, then each secondary
    /// resource, paper 3.3) against `capacity · slack`.
    loads: Loads,
    /// `members[node]`: the objects placed on `node`, ascending by id;
    /// [`Repairer::apply_move`] keeps it in step with `rp`.
    members: Vec<Vec<ObjectId>>,
    /// `seen[obj] == seen_stamp`: `obj` was discovered in this step.
    seen: Vec<u64>,
    seen_stamp: u64,
    /// `tag[obj] == cluster_tag`: `obj` is in the cluster being scored.
    /// `u64`, because one repair can score more clusters than `u32` counts.
    tag: Vec<u64>,
    cluster_tag: u64,
    /// Clusters on the current source node, largest first.
    clusters: Vec<Vec<ObjectId>>,
    /// Emptied cluster buffers, reused by the next discovery.
    spare: Vec<Vec<ObjectId>>,
    stack: Vec<ObjectId>,
    /// `join[k]`: one cluster's edge weight to objects on node `k`; only
    /// the entries listed in `touched` can be non-zero.
    join: Vec<f64>,
    touched: Vec<usize>,
    moves: usize,
}

impl<'a> Repairer<'a> {
    /// `loads` is the ledger of `placement`; [`repair_capacity_with`]
    /// passes the one of the problem's own demands.
    fn new(problem: &'a CcaProblem, placement: Placement, loads: Loads) -> Self {
        let n = problem.num_nodes();
        let mut members = vec![Vec::new(); n];
        for i in problem.objects() {
            members[placement.node_of(i)].push(i);
        }
        let rp = ReplicaPlacement::from_primary(placement);
        Repairer {
            problem,
            graph: problem.graph(),
            loads,
            rp,
            members,
            seen: vec![0; problem.num_objects()],
            seen_stamp: 0,
            tag: vec![0; problem.num_objects()],
            cluster_tag: 0,
            clusters: Vec::new(),
            spare: Vec::new(),
            stack: Vec::new(),
            join: vec![0.0; n],
            touched: Vec::new(),
            moves: 0,
        }
    }

    /// The eviction loop, then up to `improvement_sweeps` sweeps of the
    /// polish on this repair's ledger. Returns the outcome and the
    /// repaired placement.
    fn run(mut self, improvement_sweeps: usize) -> (RepairOutcome, Placement) {
        // Every step moves ≥1 object off an overloaded node onto a node
        // that stays within limits, so total overload strictly decreases;
        // the cap is defence in depth.
        let max_steps = 4 * self.problem.num_objects() + 16;
        let mut feasible = true;
        for _ in 0..max_steps {
            match self.step() {
                Ok(true) => continue,
                Ok(false) => break,
                Err(()) => {
                    feasible = false;
                    break;
                }
            }
        }
        if feasible {
            feasible = (0..self.problem.num_nodes()).all(|k| self.loads.overload(k) <= 1e-12);
        }
        if improvement_sweeps > 0 {
            let tree = DomainTree::flat(self.rp.num_nodes());
            let options = MigrateOptions {
                max_sweeps: improvement_sweeps,
                ..MigrateOptions::default()
            };
            self.moves += polish(self.problem, &tree, &mut self.rp, &mut self.loads, &options).0;
        }
        let outcome = RepairOutcome {
            moves: self.moves,
            feasible,
        };
        (outcome, self.rp.into_primary())
    }

    fn apply_move(&mut self, obj: ObjectId, src: usize, dst: usize) {
        self.loads.apply(obj, src, dst);
        let from = &mut self.members[src];
        let at = from
            .binary_search(&obj)
            .expect("a moved object is a member of its source node");
        from.remove(at);
        let to = &mut self.members[dst];
        let at = to
            .binary_search(&obj)
            .expect_err("a moved object is not yet on its target node");
        to.insert(at, obj);
        self.rp.assign(obj, 0, dst);
        self.moves += 1;
    }

    /// Fills `clusters` with the clusters on `node`: connected groups
    /// (within the correlation graph) of its members, discovered from
    /// `members[node]` in ascending id by a stack DFS over CSR neighbours,
    /// so each cluster's root is its smallest member. A stable sort then
    /// orders them by size descending, then by smallest member id, and
    /// the step's strict-< selection takes the first of equal scores.
    fn discover_clusters(&mut self, node: usize) {
        let placement = self.rp.primary();
        self.spare.extend(self.clusters.drain(..).map(|mut c| {
            c.clear();
            c
        }));
        self.seen_stamp += 1;
        let stamp = self.seen_stamp;
        for &i in &self.members[node] {
            if self.seen[i.index()] == stamp {
                continue;
            }
            let mut cluster = self.spare.pop().unwrap_or_default();
            self.seen[i.index()] = stamp;
            self.stack.push(i);
            while let Some(o) = self.stack.pop() {
                cluster.push(o);
                for (other, _) in self.graph.neighbors(o) {
                    if placement.node_of(other) == node && self.seen[other.index()] != stamp {
                        self.seen[other.index()] = stamp;
                        self.stack.push(other);
                    }
                }
            }
            self.clusters.push(cluster);
        }
        self.clusters.sort_by_key(|c| std::cmp::Reverse(c.len()));
    }

    /// Candidate 1: the whole-cluster move off `src` with the lowest
    /// Δcost per byte (zero cut cost for a complete component; cheap for
    /// weakly attached groups), as `(cluster index, target)`. Singletons
    /// are scored like any other cluster.
    fn best_cluster_move(&mut self, src: usize) -> Option<(usize, usize)> {
        let n = self.problem.num_nodes();
        let placement = self.rp.primary();
        let mut best: Option<(f64, usize, usize)> = None;
        for (c, cluster) in self.clusters.iter().enumerate() {
            // Cut cost to the rest of src plus joins at each target.
            self.cluster_tag += 1;
            for &o in cluster {
                self.tag[o.index()] = self.cluster_tag;
            }
            let mut base = 0.0;
            for &o in cluster {
                for (other, w) in self.graph.neighbors(o) {
                    if self.tag[other.index()] == self.cluster_tag {
                        continue;
                    }
                    let on = placement.node_of(other);
                    if on == src {
                        base += w;
                    } else {
                        if self.join[on] == 0.0 {
                            self.touched.push(on);
                        }
                        self.join[on] += w;
                    }
                }
            }
            let size = (cluster.iter())
                .fold(0.0, |s, &o| s + self.loads.size(o))
                .max(1.0);
            // Exact bound: every target's score (base − join[k]) / size is
            // at least (base − max(0, maxₖ join[k])) / size, as IEEE
            // subtraction and division by a positive number are monotone.
            // Unless that bound is below the best score, no target can win
            // the strict-< selection: skip the demand sum and group fits.
            let could_win = best.is_none_or(|(bs, _, _)| {
                let max_join = (self.touched.iter())
                    .map(|&k| self.join[k])
                    .fold(0.0, f64::max);
                (base - max_join) / size < bs
            });
            if could_win {
                let demand = self.loads.demand(cluster);
                // A cluster with zero demand in every dimension frees nothing.
                if demand.iter().any(|&d| d != 0.0) {
                    for k in 0..n {
                        if k == src || !self.loads.fits_demand(k, &demand) {
                            continue;
                        }
                        let score = (base - self.join[k]) / size;
                        if best.is_none_or(|(bs, _, _)| score < bs) {
                            best = Some((score, c, k));
                        }
                    }
                }
            }
            for k in self.touched.drain(..) {
                self.join[k] = 0.0;
            }
        }
        best.map(|(_, c, k)| (c, k))
    }

    /// Candidate 2: the single-object eviction off `src` with the lowest
    /// Δcost per byte. One CSR row walk per member with a fitting target
    /// scores every target; the selection over the fitting ones is
    /// ascending-k strict-<.
    fn best_object_move(&self, src: usize) -> Option<(ObjectId, usize)> {
        let n = self.problem.num_nodes();
        let mut best: Option<(f64, ObjectId, usize)> = None;
        let mut fitting: Vec<usize> = Vec::with_capacity(n);
        let mut deltas = vec![0.0f64; n];
        for &i in &self.members[src] {
            if self.loads.demand(&[i]).iter().all(|&d| d == 0.0) {
                continue;
            }
            fitting.clear();
            fitting.extend((0..n).filter(|&k| k != src && self.loads.fits(k, i)));
            if fitting.is_empty() {
                continue;
            }
            self.problem
                .eval_replica_move_deltas(&self.rp, i, 0, &mut deltas);
            for &k in &fitting {
                let score = deltas[k] / self.loads.size(i).max(1.0);
                if best.is_none_or(|(bs, _, _)| score < bs) {
                    best = Some((score, i, k));
                }
            }
        }
        best.map(|(_, i, k)| (i, k))
    }

    /// Tries one repair step on the most overloaded node. Returns `false`
    /// when nothing is overloaded, and `Err` when nothing can move.
    ///
    /// A step costs O(members(src) + their edges) plus the cluster sort
    /// and one group-fits scan per cluster that survives the score bound.
    fn step(&mut self) -> Result<bool, ()> {
        let n = self.problem.num_nodes();
        let Some((src, _)) = (0..n)
            .map(|k| (k, self.loads.overload(k)))
            .filter(|&(_, over)| over > 1e-12)
            .max_by(|a, b| a.1.total_cmp(&b.1))
        else {
            return Ok(false); // feasible
        };

        self.discover_clusters(src);
        if let Some((c, target)) = self.best_cluster_move(src) {
            let cluster = std::mem::take(&mut self.clusters[c]);
            for &o in &cluster {
                self.apply_move(o, src, target);
            }
            self.clusters[c] = cluster;
            return Ok(true);
        }

        // Only when no cluster fits anywhere: evict single objects, members
        // of larger clusters included.
        let Some((obj, target)) = self.best_object_move(src) else {
            return Err(()); // stuck: nothing fits anywhere
        };
        self.apply_move(obj, src, target);
        Ok(true)
    }
}

/// Moves objects between nodes until every node's load is within
/// `capacity(k) * slack`, then runs up to `improvement_sweeps` bounded
/// local-search sweeps (capacity-respecting, strictly cost-reducing moves
/// only).
///
/// # Panics
///
/// Panics if the placement and problem dimensions disagree or
/// `slack < 1.0`.
pub fn repair_capacity(
    problem: &CcaProblem,
    placement: &mut Placement,
    slack: f64,
) -> RepairOutcome {
    repair_capacity_with(problem, placement, slack, 2)
}

/// [`repair_capacity`] with an explicit number of improvement sweeps
/// (0 disables local search).
///
/// # Panics
///
/// Panics under the same conditions as [`repair_capacity`].
pub fn repair_capacity_with(
    problem: &CcaProblem,
    placement: &mut Placement,
    slack: f64,
    improvement_sweeps: usize,
) -> RepairOutcome {
    assert!(slack >= 1.0, "slack must be at least 1.0");
    assert_eq!(placement.num_objects(), problem.num_objects());
    let loads = Loads::new(problem, std::slice::from_ref(placement), slack);
    // Take the placement out for the repair (the stand-in holds no
    // objects) and put the repaired one back.
    let start = std::mem::replace(placement, Placement::new(Vec::new(), placement.num_nodes()));
    let (outcome, repaired) = Repairer::new(problem, start, loads).run(improvement_sweeps);
    *placement = repaired;
    outcome
}

/// Outcome of [`repair_replica_spread`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaRepairOutcome {
    /// Number of copies re-placed off dead nodes.
    pub moves: usize,
    /// Bytes moved (one object size per re-placed copy).
    pub migrated_bytes: u64,
    /// Whether the repaired placement satisfies the spread invariant (it
    /// can only be `false` when fewer alive leaf domains remain than
    /// replicas — the re-spread then degrades to best-effort).
    pub spread_valid: bool,
}

/// Re-spreads a replica placement after node or whole-domain loss: every
/// copy on a node in `dead_nodes` is re-placed onto an alive node whose
/// leaf domain holds no surviving copy of the object, by the
/// deterministic copy-target rule of [`crate::replica`] (fresh zone, then
/// fitting under `capacity · slack` in every dimension, then lightest
/// copy-inclusive storage load, then lowest node id). Objects are visited
/// in ascending id order, replicas in ascending index order —
/// reproducible across threads and shards. If every alive leaf already
/// holds a copy (fewer alive domains than replicas), the copy falls back
/// to the alive node with the lightest storage load: a best-effort
/// spread, reported in [`ReplicaRepairOutcome::spread_valid`].
///
/// This is the replica analogue of zero-capacity +
/// [`repair_capacity`] in [`crate::resilience::survive_node_loss`]; it
/// restores the spread invariant whenever enough alive leaf domains
/// remain.
///
/// # Panics
///
/// Panics if a dead node id is out of range or the tree and placement
/// disagree on node count.
pub fn repair_replica_spread(
    problem: &CcaProblem,
    tree: &DomainTree,
    rp: &mut ReplicaPlacement,
    dead_nodes: &[usize],
    slack: f64,
) -> ReplicaRepairOutcome {
    assert_eq!(
        tree.num_nodes(),
        rp.num_nodes(),
        "domain tree and placement disagree on node count"
    );
    let mut dead = vec![false; rp.num_nodes()];
    for &n in dead_nodes {
        dead[n] = true;
    }
    let alive = |node: usize| !dead[node];
    // Copies leaving a dead node lighten it, which nothing reads: dead
    // nodes are never candidates.
    let mut loads = Loads::new(problem, rp.columns(), slack);
    let r = rp.replicas();
    let mut moves = 0usize;
    let mut migrated_bytes = 0u64;
    for i in problem.objects() {
        let mut used_leaves: Vec<usize> = Vec::with_capacity(r);
        let mut used_zones: Vec<usize> = Vec::with_capacity(r);
        for n in rp.nodes_of(i).filter(|&n| alive(n)) {
            used_leaves.push(tree.domain_of(n));
            used_zones.push(tree.zone_of(n));
        }
        for j in 0..r {
            let n = rp.node_of(i, j);
            if alive(n) {
                continue;
            }
            let target =
                pick_copy_node(tree, &loads, alive, &used_leaves, &used_zones, i).or_else(|| {
                    (0..tree.num_nodes())
                        .filter(|&node| alive(node))
                        .min_by(|&a, &b| loads.storage(a).total_cmp(&loads.storage(b)))
                });
            if let Some(target) = target {
                loads.apply(i, n, target);
                rp.assign(i, j, target);
                used_leaves.push(tree.domain_of(target));
                used_zones.push(tree.zone_of(target));
                moves += 1;
                migrated_bytes += problem.size(i);
            }
        }
    }
    ReplicaRepairOutcome {
        moves,
        migrated_bytes,
        spread_valid: rp.spread_valid(tree),
    }
}

/// The capacity repair as it was before per-node member lists and the
/// score bound: every step rescans all objects through a `HashMap`. Kept
/// verbatim, except that the demand vectors are passed in, as the
/// differential oracle the rewrite must match move for move.
#[cfg(test)]
mod reference {
    use super::RepairOutcome;
    use crate::graph::{single_copy_move_deltas, CorrelationGraph};
    use crate::placement::Placement;
    use crate::problem::{CcaProblem, ObjectId};
    use std::collections::HashMap;

    struct Repairer<'a> {
        problem: &'a CcaProblem,
        /// `limits[node][dim]`: dimension 0 is storage, then one per secondary
        /// resource (paper 3.3), all scaled by the slack.
        limits: Vec<Vec<f64>>,
        graph: &'a CorrelationGraph,
        /// `loads[node][dim]`.
        loads: Vec<Vec<f64>>,
        /// Cached per-object demand vectors.
        demands: Vec<Vec<f64>>,
        moves: usize,
    }

    impl Repairer<'_> {
        /// Cost changes of moving object `i` to each node in `targets`
        /// (negative is an improvement) — one O(deg) CSR row walk scores them
        /// all, each entry bit-equal to the per-target walk.
        fn move_delta_batch(
            &self,
            placement: &Placement,
            i: ObjectId,
            targets: &[usize],
        ) -> Vec<f64> {
            single_copy_move_deltas(self.graph, placement, i, targets)
        }

        fn fits(&self, node: usize, extra: &[f64]) -> bool {
            self.loads[node]
                .iter()
                .zip(extra)
                .zip(&self.limits[node])
                .all(|((&l, &e), &lim)| l + e <= lim + 1e-9)
        }

        fn apply_move(&mut self, placement: &mut Placement, obj: ObjectId, src: usize, dst: usize) {
            for dim in 0..self.demands[obj.index()].len() {
                let d = self.demands[obj.index()][dim];
                self.loads[src][dim] -= d;
                self.loads[dst][dim] += d;
            }
            placement.assign(obj, dst);
            self.moves += 1;
        }

        /// Overload of `node`: the worst relative excess over any dimension.
        fn overload(&self, node: usize) -> f64 {
            self.loads[node]
                .iter()
                .zip(&self.limits[node])
                .map(|(&l, &lim)| (l - lim) / (1.0 + lim))
                .fold(f64::NEG_INFINITY, f64::max)
        }

        /// Clusters on `node`: connected groups (within the correlation graph)
        /// of objects currently placed on `node`, sorted largest first.
        fn clusters_on(&self, placement: &Placement, node: usize) -> Vec<Vec<ObjectId>> {
            let mut visited: HashMap<ObjectId, bool> = HashMap::new();
            let mut clusters = Vec::new();
            for i in self.problem.objects() {
                if placement.node_of(i) != node || visited.contains_key(&i) {
                    continue;
                }
                let mut cluster = Vec::new();
                let mut stack = vec![i];
                visited.insert(i, true);
                while let Some(o) = stack.pop() {
                    cluster.push(o);
                    for (other, _) in self.graph.neighbors(o) {
                        if placement.node_of(other) == node && !visited.contains_key(&other) {
                            visited.insert(other, true);
                            stack.push(other);
                        }
                    }
                }
                clusters.push(cluster);
            }
            clusters.sort_by_key(|c| std::cmp::Reverse(c.len()));
            clusters
        }

        /// Tries one repair step on the most overloaded node. Returns `false`
        /// when nothing is overloaded or nothing can move.
        fn step(&mut self, placement: &mut Placement) -> Result<bool, ()> {
            let n = self.problem.num_nodes();
            let Some((src, _)) = (0..n)
                .map(|k| (k, self.overload(k)))
                .filter(|&(_, over)| over > 1e-12)
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            else {
                return Ok(false); // feasible
            };

            // Candidate 1: whole-cluster moves (zero cut cost for a complete
            // component; cheap for weakly attached groups).
            let dims = 1 + self.problem.resources().len();
            let mut best_cluster: Option<(f64, Vec<ObjectId>, usize)> = None;
            for cluster in self.clusters_on(placement, src) {
                // Skip the degenerate "whole node" cluster if it cannot fit
                // anywhere; singleton clusters are covered by candidate 2.
                let mut demand = vec![0.0f64; dims];
                for &o in &cluster {
                    for (dst, d) in demand.iter_mut().zip(&self.demands[o.index()]) {
                        *dst += d;
                    }
                }
                let size = demand[0];
                if demand.iter().all(|&d| d == 0.0) {
                    continue;
                }
                // Cut cost to the rest of src plus joins at each target.
                let in_cluster: std::collections::HashSet<ObjectId> =
                    cluster.iter().copied().collect();
                let mut base = 0.0;
                let mut join = vec![0.0f64; n];
                for &o in &cluster {
                    for (other, w) in self.graph.neighbors(o) {
                        if in_cluster.contains(&other) {
                            continue;
                        }
                        let on = placement.node_of(other);
                        if on == src {
                            base += w;
                        } else {
                            join[on] += w;
                        }
                    }
                }
                for k in 0..n {
                    if k == src || !self.fits(k, &demand) {
                        continue;
                    }
                    let delta = base - join[k];
                    let score = delta / size.max(1.0);
                    if best_cluster.as_ref().is_none_or(|&(bs, _, _)| score < bs) {
                        best_cluster = Some((score, cluster.clone(), k));
                    }
                }
            }
            if let Some((_, cluster, target)) = best_cluster {
                for &o in &cluster {
                    self.apply_move(placement, o, src, target);
                }
                return Ok(true);
            }

            // Candidate 2: single-object eviction by Δcost per byte. One CSR
            // row walk per object scores all its fitting targets; ascending-k
            // strict-< selection is unchanged.
            let mut best: Option<(f64, ObjectId, usize)> = None;
            let mut fitting: Vec<usize> = Vec::with_capacity(n);
            for i in self.problem.objects() {
                if placement.node_of(i) != src {
                    continue;
                }
                let demand = &self.demands[i.index()];
                if demand.iter().all(|&d| d == 0.0) {
                    continue;
                }
                fitting.clear();
                fitting.extend((0..n).filter(|&k| k != src && self.fits(k, demand)));
                let deltas = self.move_delta_batch(placement, i, &fitting);
                for (&k, &delta) in fitting.iter().zip(&deltas) {
                    let score = delta / demand[0].max(1.0);
                    if best.is_none_or(|(bs, _, _)| score < bs) {
                        best = Some((score, i, k));
                    }
                }
            }
            let Some((_, obj, target)) = best else {
                return Err(()); // stuck: nothing fits anywhere
            };
            self.apply_move(placement, obj, src, target);
            Ok(true)
        }

        /// One local-search sweep: re-home any object whose best
        /// capacity-respecting node strictly reduces cost. Returns the number
        /// of improving moves.
        fn improvement_sweep(&mut self, placement: &mut Placement) -> usize {
            let n = self.problem.num_nodes();
            let mut improved = 0;
            let mut fitting: Vec<usize> = Vec::with_capacity(n);
            for i in self.problem.objects() {
                let src = placement.node_of(i);
                let demand = self.demands[i.index()].clone();
                // One row walk scores every fitting target (bit-equal per
                // entry), with the same ascending-k strict-< winner.
                fitting.clear();
                fitting.extend((0..n).filter(|&k| k != src && self.fits(k, &demand)));
                let deltas = self.move_delta_batch(placement, i, &fitting);
                let mut best: Option<(f64, usize)> = None;
                for (&k, &delta) in fitting.iter().zip(&deltas) {
                    if delta < -1e-12 && best.is_none_or(|(bd, _)| delta < bd) {
                        best = Some((delta, k));
                    }
                }
                if let Some((_, k)) = best {
                    self.apply_move(placement, i, src, k);
                    improved += 1;
                }
            }
            improved
        }
    }

    /// `repair_capacity_with` before the rewrite, taking the demand
    /// vectors instead of reading them from `problem`.
    pub(super) fn repair_capacity_with(
        problem: &CcaProblem,
        placement: &mut Placement,
        slack: f64,
        improvement_sweeps: usize,
        demands: Vec<Vec<f64>>,
    ) -> RepairOutcome {
        assert!(slack >= 1.0, "slack must be at least 1.0");
        assert_eq!(placement.num_objects(), problem.num_objects());
        let n = problem.num_nodes();
        let dims = 1 + problem.resources().len();
        let limits: Vec<Vec<f64>> = (0..n)
            .map(|k| {
                let mut v = vec![problem.capacity(k) as f64 * slack];
                for res in problem.resources() {
                    v.push(res.capacity(k) as f64 * slack);
                }
                v
            })
            .collect();
        let mut loads = vec![vec![0.0f64; dims]; n];
        for i in problem.objects() {
            let node = placement.node_of(i);
            for (dst, d) in loads[node].iter_mut().zip(&demands[i.index()]) {
                *dst += d;
            }
        }
        let mut repairer = Repairer {
            problem,
            limits,
            graph: problem.graph(),
            loads,
            demands,
            moves: 0,
        };

        // Eviction loop. Every step moves ≥1 object off an overloaded node
        // onto a node that stays within limits, so total overload strictly
        // decreases; the cap is defence in depth.
        let max_steps = 4 * problem.num_objects() + 16;
        let mut feasible = true;
        for _ in 0..max_steps {
            match repairer.step(placement) {
                Ok(true) => continue,
                Ok(false) => break,
                Err(()) => {
                    feasible = false;
                    break;
                }
            }
        }
        if feasible {
            feasible = (0..n).all(|k| repairer.overload(k) <= 1e-12);
        }

        for _ in 0..improvement_sweeps {
            if repairer.improvement_sweep(placement) == 0 {
                break;
            }
        }

        RepairOutcome {
            moves: repairer.moves,
            feasible,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::Resource;
    use cca_check::{prop_assert_eq, Checker, Rng, Shrink, StdRng};
    use cca_rand::seq::SliceRandom;
    use std::cell::Cell;

    /// A random instance for the differential property.
    #[derive(Debug, Clone)]
    struct DiffCase {
        /// Object sizes. 0 gives the object no storage demand: a problem
        /// cannot hold size-0 objects, so demand vectors are passed in.
        sizes: Vec<u64>,
        /// Optional secondary resource: per-object demands, per-node
        /// capacities.
        resource: Option<(Vec<u64>, Vec<u64>)>,
        /// `(a, b, correlation in 997ths, comm cost in 7ths)`: weights
        /// are not dyadic, so the graph snaps them to its quantum.
        edges: Vec<(usize, usize, u32, u32)>,
        /// Storage capacities; 0 marks a dead node.
        capacities: Vec<u64>,
        start: Vec<u32>,
        slack: f64,
        sweeps: usize,
    }

    impl Shrink for DiffCase {
        fn shrink(&self) -> Vec<Self> {
            let mut out: Vec<Self> = (self.edges.shrink().into_iter())
                .map(|edges| DiffCase {
                    edges,
                    ..self.clone()
                })
                .collect();
            for sweeps in self.sweeps.shrink() {
                out.push(DiffCase {
                    sweeps,
                    ..self.clone()
                });
            }
            out
        }
    }

    /// 1–160 objects (about 10% of size 0) in shuffled groups of 1–6 with
    /// mostly in-group edges, on 1–11 nodes (about 20% dead), starting all
    /// on node 0, at random or round-robin.
    fn diff_case(rng: &mut StdRng) -> DiffCase {
        let t = rng.random_range(1usize..=160);
        let n = rng.random_range(1usize..=11);
        let sizes: Vec<u64> = (0..t)
            .map(|_| {
                if rng.random_bool(0.1) {
                    0
                } else {
                    rng.random_range(1u64..=40)
                }
            })
            .collect();
        let mut order: Vec<usize> = (0..t).collect();
        order.shuffle(rng);
        let mut edges = Vec::new();
        let weight = |rng: &mut StdRng| (rng.random_range(1u32..=997), rng.random_range(1u32..=70));
        let mut rest = &order[..];
        while !rest.is_empty() {
            let (group, tail) = rest.split_at(rng.random_range(1..=6).min(rest.len()));
            for w in group.windows(2) {
                if rng.random_bool(0.85) {
                    let (r, c) = weight(rng);
                    edges.push((w[0], w[1], r, c));
                }
            }
            if group.len() > 2 && rng.random_bool(0.5) {
                let (r, c) = weight(rng);
                edges.push((group[0], group[group.len() - 1], r, c));
            }
            rest = tail;
        }
        for _ in 0..rng.random_range(0..=t / 8) {
            let (r, c) = weight(rng);
            edges.push((rng.random_range(0..t), rng.random_range(0..t), r, c));
        }
        let share = |rng: &mut StdRng, total: u64, pct: std::ops::RangeInclusive<u64>| {
            total * rng.random_range(pct) / (100 * n as u64)
        };
        let total: u64 = sizes.iter().sum();
        let mut capacities: Vec<u64> = (0..n)
            .map(|_| {
                if rng.random_bool(0.2) {
                    0
                } else {
                    share(rng, total, 60..=220)
                }
            })
            .collect();
        if capacities.iter().all(|&c| c == 0) {
            capacities[rng.random_range(0..n)] = total / n as u64 + 1;
        }
        let resource = rng.random_bool(1.0 / 3.0).then(|| {
            let demands: Vec<u64> = (0..t).map(|_| rng.random_range(0u64..=6)).collect();
            let total: u64 = demands.iter().sum();
            let caps = (0..n).map(|_| share(rng, total, 60..=200)).collect();
            (demands, caps)
        });
        let start = match rng.random_range(0..3) {
            0 => vec![0; t],
            1 => (0..t).map(|_| rng.random_range(0..n as u32)).collect(),
            _ => (0..t).map(|i| (i % n) as u32).collect(),
        };
        DiffCase {
            sizes,
            resource,
            edges,
            capacities,
            start,
            slack: [1.0, 1.05, 1.25, 1.5][rng.random_range(0..4)],
            sweeps: rng.random_range(0..=2),
        }
    }

    /// The case's problem and demand vectors (storage entries from
    /// `sizes`, zeros included).
    fn build(c: &DiffCase) -> (CcaProblem, Vec<Vec<f64>>) {
        let mut b = CcaProblem::builder();
        let o: Vec<ObjectId> = (c.sizes.iter().enumerate())
            .map(|(i, &s)| b.add_object(format!("o{i}"), s.max(1)))
            .collect();
        for &(a, d, r, w) in &c.edges {
            if a != d {
                b.add_pair(o[a], o[d], f64::from(r) / 997.0, f64::from(w) / 7.0)
                    .expect("valid pair");
            }
        }
        b.capacities(c.capacities.clone());
        if let Some((demands, caps)) = &c.resource {
            b.add_resource(Resource::new("bandwidth", demands.clone(), caps.clone()));
        }
        let p = b.build().expect("valid problem");
        let demands = (p.objects())
            .map(|i| {
                let mut v: Vec<f64> = (p.dimensions().iter())
                    .map(|d| d.demand(i.index()) as f64)
                    .collect();
                v[0] = c.sizes[i.index()] as f64;
                v
            })
            .collect();
        (p, demands)
    }

    /// The rewrite (member lists, indexed work arrays, score bound) makes the
    /// reference's every move: identical outcome and placement, stuck and
    /// zero-demand cases included.
    #[test]
    fn repair_matches_reference_move_for_move() {
        let (stuck, moved) = (Cell::new(0u32), Cell::new(0u32));
        Checker::new("repair_matches_reference_move_for_move")
            .cases(2000)
            .run(diff_case, |c| {
                let (p, demands) = build(c);
                let start = Placement::new(c.start.clone(), p.num_nodes());
                let mut expected = start.clone();
                let want = reference::repair_capacity_with(
                    &p,
                    &mut expected,
                    c.slack,
                    c.sweeps,
                    demands.clone(),
                );
                let loads =
                    Loads::with_demands(&p, std::slice::from_ref(&start), c.slack, |i, d| {
                        demands[i.index()][d]
                    });
                let (outcome, got) = Repairer::new(&p, start.clone(), loads).run(c.sweeps);
                prop_assert_eq!(outcome, want);
                prop_assert_eq!(got, expected);
                if c.sizes.iter().all(|&s| s > 0) {
                    // The demands are the problem's own: the public entry
                    // point takes the same path.
                    let mut public = start;
                    prop_assert_eq!(
                        repair_capacity_with(&p, &mut public, c.slack, c.sweeps),
                        want
                    );
                    prop_assert_eq!(public, expected);
                }
                stuck.set(stuck.get() + u32::from(!want.feasible));
                moved.set(moved.get() + u32::from(want.moves > 0));
                Ok(())
            });
        assert!(
            stuck.get() > 0 && moved.get() > 0,
            "the generator must reach stuck ({}) and moving ({}) cases",
            stuck.get(),
            moved.get()
        );
    }

    fn clustered() -> CcaProblem {
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..6).map(|i| b.add_object(format!("o{i}"), 10)).collect();
        // Two triangles with strong internal correlation, weakly linked.
        for g in 0..2 {
            for i in 0..3 {
                for j in i + 1..3 {
                    b.add_pair(o[g * 3 + i], o[g * 3 + j], 0.9, 10.0).unwrap();
                }
            }
        }
        b.add_pair(o[0], o[3], 0.05, 10.0).unwrap();
        b.uniform_capacities(2, 40).build().unwrap()
    }

    #[test]
    fn feasible_placement_is_untouched() {
        let p = clustered();
        let mut pl = Placement::new(vec![0, 0, 0, 1, 1, 1], 2);
        let before = pl.clone();
        let out = repair_capacity(&p, &mut pl, 1.0);
        assert_eq!(out.moves, 0);
        assert!(out.feasible);
        assert_eq!(pl, before);
    }

    #[test]
    fn overload_is_resolved_along_cheapest_cut() {
        let p = clustered();
        // Everything co-located: node 0 load 60 > 40. The optimal repair
        // cuts only the weak (o0,o3) edge, cost 0.5.
        let mut pl = Placement::new(vec![0, 0, 0, 0, 0, 0], 2);
        let out = repair_capacity(&p, &mut pl, 1.0);
        assert!(out.feasible, "repair failed: {out:?}");
        assert!(pl.within_capacity(&p, 1.0));
        let cost = pl.communication_cost(&p);
        assert!(
            cost <= 0.5 + 1e-9,
            "repair should cut only the weak edge, cost {cost}"
        );
    }

    #[test]
    fn disconnected_clusters_move_for_free() {
        // Two independent components crammed on one node: repair should
        // move one component wholesale at zero cost.
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..4).map(|i| b.add_object(format!("o{i}"), 10)).collect();
        b.add_pair(o[0], o[1], 0.9, 10.0).unwrap();
        b.add_pair(o[2], o[3], 0.9, 10.0).unwrap();
        let p = b.uniform_capacities(2, 20).build().unwrap();
        let mut pl = Placement::new(vec![0, 0, 0, 0], 2);
        let out = repair_capacity(&p, &mut pl, 1.0);
        assert!(out.feasible);
        assert!(pl.within_capacity(&p, 1.0));
        assert_eq!(pl.communication_cost(&p), 0.0);
        // Pairs stayed together.
        assert_eq!(pl.node_of(o[0]), pl.node_of(o[1]));
        assert_eq!(pl.node_of(o[2]), pl.node_of(o[3]));
    }

    #[test]
    fn equal_clusters_move_in_smallest_id_order() {
        // Three equal pairs crammed on node 0, each free to move: equal
        // size, equal (zero) score, and one move fixes the overload. The
        // cluster holding the smallest id moves.
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..6).map(|i| b.add_object(format!("o{i}"), 10)).collect();
        for (a, d) in [(2, 5), (0, 4), (1, 3)] {
            b.add_pair(o[a], o[d], 0.5, 10.0).unwrap();
        }
        let p = b.capacities(vec![40, 100]).build().unwrap();
        let mut pl = Placement::new(vec![0; 6], 2);
        let out = repair_capacity_with(&p, &mut pl, 1.0, 0);
        assert!(out.feasible);
        assert_eq!(out.moves, 2);
        assert_eq!(pl.as_slice(), &[1, 0, 0, 0, 1, 0]);
    }

    #[test]
    fn impossible_repair_reports_infeasible() {
        let mut b = CcaProblem::builder();
        b.add_object("a", 10);
        b.add_object("b", 10);
        let p = b.uniform_capacities(2, 5).build().unwrap();
        let mut pl = Placement::new(vec![0, 0], 2);
        let out = repair_capacity(&p, &mut pl, 1.0);
        assert!(!out.feasible);
    }

    #[test]
    fn slack_loosens_the_limit() {
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..3).map(|i| b.add_object(format!("o{i}"), 10)).collect();
        b.add_pair(o[0], o[1], 0.9, 1.0).unwrap();
        let p = b.uniform_capacities(2, 24).build().unwrap();
        let mut pl = Placement::new(vec![0, 0, 0], 2);
        // Load 30 on node 0; slack 1.5 allows 36, so nothing to do.
        let out = repair_capacity(&p, &mut pl, 1.5);
        assert_eq!(out.moves, 0);
        assert!(out.feasible);
        // Strict slack forces a move, and the correlated pair survives.
        let out2 = repair_capacity(&p, &mut pl, 1.0);
        assert!(out2.feasible);
        assert!(out2.moves >= 1);
        assert!(pl.within_capacity(&p, 1.0));
        assert_eq!(pl.node_of(o[0]), pl.node_of(o[1]));
    }

    #[test]
    fn improvement_sweep_fixes_bad_homes() {
        // o0 strongly tied to o1,o2 but placed alone: the sweep brings it
        // home even with no overload anywhere.
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..3).map(|i| b.add_object(format!("o{i}"), 5)).collect();
        b.add_pair(o[0], o[1], 0.9, 10.0).unwrap();
        b.add_pair(o[0], o[2], 0.9, 10.0).unwrap();
        let p = b.uniform_capacities(2, 20).build().unwrap();
        let mut pl = Placement::new(vec![1, 0, 0], 2);
        let out = repair_capacity(&p, &mut pl, 1.0);
        assert!(out.feasible);
        assert_eq!(pl.communication_cost(&p), 0.0);
        assert_eq!(pl.node_of(o[0]), pl.node_of(o[1]));
    }

    #[test]
    fn zero_sweeps_skip_local_search() {
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..2).map(|i| b.add_object(format!("o{i}"), 5)).collect();
        b.add_pair(o[0], o[1], 0.9, 10.0).unwrap();
        let p = b.uniform_capacities(2, 20).build().unwrap();
        let mut pl = Placement::new(vec![1, 0], 2);
        let out = repair_capacity_with(&p, &mut pl, 1.0, 0);
        assert!(out.feasible);
        assert_eq!(out.moves, 0); // no overload, no sweeps => untouched
        assert_eq!(pl.node_of(o[0]), 1);
    }

    #[test]
    #[should_panic(expected = "slack must be at least")]
    fn slack_below_one_is_rejected() {
        let p = clustered();
        let mut pl = Placement::new(vec![0; 6], 2);
        let _ = repair_capacity(&p, &mut pl, 0.5);
    }
}
