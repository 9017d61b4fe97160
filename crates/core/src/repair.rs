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

use crate::graph::{CorrelationGraph, GroupWalk};
use crate::migrate::{polish, MigrateOptions};
use crate::placement::Placement;
use crate::problem::{CcaProblem, ObjectId};
use crate::replica::{place_copies, DomainTree, ReplicaPlacement};
use crate::resources::Loads;

/// Outcome of [`repair_capacity`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairOutcome {
    /// Number of objects moved (cluster moves count each member).
    pub moves: usize,
    /// Whether the eviction left every node within its limit at the
    /// slack, the limit [`Placement::within_all_capacities`] checks. The
    /// improvement sweeps keep such a placement within it.
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
    /// resource, paper 3.3) against its limit at the slack.
    loads: Loads,
    /// `members[node]`: the objects placed on `node`, ascending by id;
    /// [`Repairer::apply_move`] keeps it in step with `rp`.
    members: Vec<Vec<ObjectId>>,
    /// The clusters on the current source node, largest first.
    clusters: GroupWalk,
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
            clusters: GroupWalk::new(problem.num_objects(), n),
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
        for _ in 0..max_steps {
            if !self.step() {
                break;
            }
        }
        // The verdict is the eviction's: the sweeps move only to nodes
        // where a copy fits, so they never break it.
        let feasible = !(0..self.problem.num_nodes()).any(|k| self.loads.over(k));
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

    /// Candidate 1: the whole-cluster move off `src` with the lowest
    /// Δcost per byte (zero cut cost for a complete component; cheap for
    /// weakly attached groups), as `(cluster index, target)`. Singletons
    /// are scored like any other cluster.
    fn best_cluster_move(&mut self, src: usize) -> Option<(usize, usize)> {
        let n = self.problem.num_nodes();
        let mut best: Option<(f64, usize, usize)> = None;
        for c in 0..self.clusters.len() {
            // Cut cost to the rest of src, then joins at each target.
            let (_, base) = self.clusters.fold(self.graph, c, self.rp.primary());
            let cluster = self.clusters.group(c);
            let size = (cluster.iter())
                .fold(0.0, |s, &o| s + self.loads.size(o) as f64)
                .max(1.0);
            // Exact bound: every target's score (base − join(k)) / size is
            // at least (base − max(0, maxₖ join(k))) / size, as IEEE
            // subtraction and division by a positive number are monotone.
            // Unless that bound is below the best score, no target can win
            // the strict-< selection: skip the demand sum and group fits.
            let could_win =
                best.is_none_or(|(bs, _, _)| (base - self.clusters.max_join()) / size < bs);
            if !could_win {
                continue;
            }
            let demand = self.loads.demand(cluster);
            // A cluster with zero demand in every dimension frees nothing.
            if demand.iter().all(|&d| d == 0) {
                continue;
            }
            for k in 0..n {
                if k == src || !self.loads.fits_demand(k, &demand) {
                    continue;
                }
                let score = (base - self.clusters.join(k)) / size;
                if best.is_none_or(|(bs, _, _)| score < bs) {
                    best = Some((score, c, k));
                }
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
            if self.loads.demand(&[i]).iter().all(|&d| d == 0) {
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
                let score = deltas[k] / (self.loads.size(i) as f64).max(1.0);
                if best.is_none_or(|(bs, _, _)| score < bs) {
                    best = Some((score, i, k));
                }
            }
        }
        best.map(|(_, i, k)| (i, k))
    }

    /// Tries one repair step on the most overloaded of the nodes over
    /// their limit. Returns `false` when no node is over its limit or
    /// nothing can move.
    ///
    /// A step costs O(members(src) + their edges) plus the cluster sort
    /// and one group-fits scan per cluster that survives the score bound.
    fn step(&mut self) -> bool {
        let n = self.problem.num_nodes();
        let Some((src, _)) = (0..n)
            .filter(|&k| self.loads.over(k))
            .map(|k| (k, self.loads.overload(self.problem, k)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
        else {
            return false; // feasible
        };

        // The clusters on src: its members' groups over edges between
        // objects on src, walked in ascending id so each root is its
        // cluster's smallest member; largest first, then by root, and the
        // strict-< selection takes the first of equal scores.
        let placement = self.rp.primary();
        (self.clusters).walk(self.graph, self.members[src].iter().copied(), |_, other| {
            placement.node_of(other) == src
        });
        self.clusters.sort_descending(<[ObjectId]>::len);
        if let Some((c, target)) = self.best_cluster_move(src) {
            let clusters = std::mem::take(&mut self.clusters);
            for &o in clusters.group(c) {
                self.apply_move(o, src, target);
            }
            self.clusters = clusters;
            return true;
        }

        // Only when no cluster fits anywhere: evict single objects, members
        // of larger clusters included.
        let Some((obj, target)) = self.best_object_move(src) else {
            return false; // stuck: nothing fits anywhere
        };
        self.apply_move(obj, src, target);
        true
    }
}

/// Moves objects between nodes until every node's load is within its
/// limit at `slack` (the limit [`Placement::within_all_capacities`]
/// checks), then runs up to `improvement_sweeps` bounded local-search
/// sweeps (capacity-respecting, strictly cost-reducing moves only).
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
/// fitting the limit at `slack` in every dimension, then lightest
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
    // Copies leaving a dead node stay in its load, which nothing reads:
    // dead nodes are never candidates.
    let mut loads = Loads::new(problem, rp.columns(), slack);
    let (moves, migrated_bytes) =
        place_copies(problem, tree, rp, &mut loads, |k| !dead[k], |_, k| dead[k]);
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
    use cca_check::{prop_assert, prop_assert_eq, Checker, Rng, Shrink, StdRng};
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
                        demands[i.index()][d] as u64
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

    /// Two 1 TB nodes with everything on node 0, one byte over its
    /// capacity: that byte is an overload like any other, and it moves.
    #[test]
    fn a_one_byte_overload_of_a_terabyte_node_is_repaired() {
        let mut b = CcaProblem::builder();
        let byte = b.add_object("byte", 1);
        b.add_object("a", 500_000_000_000);
        b.add_object("b", 500_000_000_000);
        let p = b.uniform_capacities(2, 1_000_000_000_000).build().unwrap();
        let mut pl = Placement::new(vec![0, 0, 0], 2);
        let out = repair_capacity(&p, &mut pl, 1.0);
        assert_eq!(
            out,
            RepairOutcome {
                moves: 1,
                feasible: true
            }
        );
        assert_eq!(pl.as_slice(), &[1, 0, 0]);
        assert!(pl.within_capacity(&p, 1.0));
        let audit = crate::audit::audit_placement(&p, &pl, 0);
        assert!(audit.violations.is_empty(), "{:?}", audit.violations);
        assert_eq!(pl.node_of(byte), 1);
    }

    /// Above 2^53 a one-byte overload is still an overload: an object of
    /// 2^53 + 1 bytes on a node of 2^53 bytes, with nowhere to go.
    #[test]
    fn a_one_byte_overload_above_2_pow_53_is_infeasible() {
        let mut b = CcaProblem::builder();
        b.add_object("big", (1 << 53) + 1);
        b.add_object("byte", 1);
        let p = b.uniform_capacities(2, 1 << 53).build().unwrap();
        let mut pl = Placement::new(vec![0, 1], 2);
        let out = repair_capacity(&p, &mut pl, 1.0);
        assert!(!out.feasible, "{out:?}");
        assert!(!pl.within_capacity(&p, 1.0));
    }

    /// A random instance for the verdict property.
    #[derive(Debug, Clone)]
    struct VerdictCase {
        sizes: Vec<u64>,
        /// Optional secondary resource: per-object demands, per-node
        /// capacities.
        resource: Option<(Vec<u64>, Vec<u64>)>,
        edges: Vec<(usize, usize, u32)>,
        capacities: Vec<u64>,
        start: Vec<u32>,
        desired: Vec<u32>,
        slack: f64,
        nonpositive: bool,
    }

    impl Shrink for VerdictCase {}

    /// 1–6 nodes whose capacities are drawn log-uniformly from 1 to 2^60
    /// bytes, or are 10^12 bytes, and 1–24 objects placed at random. Each
    /// node's start load is its limit `⌊capacity · slack⌋` plus −2 to +2
    /// bytes, or 30–150% of it (at most 2^61), cut into the sizes of the
    /// objects on it; a secondary resource in half the cases is cut the
    /// same way. One case in five is a rounding edge: up to 60 objects on
    /// nodes of 100 bytes at slack 1.15, whose `f64` product is just
    /// under 115.
    fn verdict_case(rng: &mut StdRng) -> VerdictCase {
        let edge = rng.random_bool(0.2);
        let n = rng.random_range(1usize..=6);
        let t = rng.random_range(1usize..=if edge { 60 } else { 24 });
        let slack = match edge {
            true => 1.15,
            false => [1.0, 1.05, 1.15, 1.3, 2.0][rng.random_range(0..5)],
        };
        let start: Vec<u32> = (0..t).map(|_| rng.random_range(0..n as u32)).collect();
        let capacity = |rng: &mut StdRng| match (edge, rng.random_range(0..4)) {
            (true, _) => 100,
            (false, 0) => 1_000_000_000_000,
            _ => {
                let e = rng.random_range(0u32..=59);
                rng.random_range(1u64 << e..=(2u64 << e) - 1)
            }
        };
        // Cuts each node's start load into the demands of its objects,
        // each at least `min`.
        let cut = |rng: &mut StdRng, caps: &[u64], min: u64| -> Vec<u64> {
            let mut demands = vec![0u64; t];
            for (k, &cap) in caps.iter().enumerate() {
                let on: Vec<usize> = (0..t).filter(|&i| start[i] as usize == k).collect();
                let floor = min * on.len() as u64;
                let limit = (cap as f64 * slack) as u64;
                let load = match rng.random_bool(0.5) {
                    true => limit.saturating_add_signed(rng.random_range(-2i64..=2)),
                    false => (limit as f64 * rng.random_range(0.3..1.5)) as u64,
                };
                let spare = load.clamp(floor, 1 << 61) - floor;
                let mut cuts: Vec<u64> = (1..on.len())
                    .map(|_| rng.random_range(0..=spare))
                    .chain([spare])
                    .collect();
                cuts.sort_unstable();
                let mut prev = 0;
                for (&i, &c) in on.iter().zip(&cuts) {
                    demands[i] = c - prev + min;
                    prev = c;
                }
            }
            demands
        };
        let capacities: Vec<u64> = (0..n).map(|_| capacity(rng)).collect();
        let sizes = cut(rng, &capacities, 1);
        let resource = rng.random_bool(0.5).then(|| {
            let caps: Vec<u64> = (0..n).map(|_| capacity(rng)).collect();
            (cut(rng, &caps, 0), caps)
        });
        let edges = (0..rng.random_range(0..=2 * t))
            .map(|_| {
                let (a, b) = (rng.random_range(0..t), rng.random_range(0..t));
                (a, b, rng.random_range(1u32..=997))
            })
            .collect();
        VerdictCase {
            sizes,
            resource,
            edges,
            capacities,
            desired: (0..t).map(|_| rng.random_range(0..n as u32)).collect(),
            start,
            slack,
            nonpositive: rng.random_bool(0.5),
        }
    }

    /// Repair's verdict is the placement check's on the placement its
    /// eviction leaves, at every scale: a node one byte over its limit is
    /// infeasible for both, at a 1 TB node and above 2^53 too. The
    /// improvement sweeps keep that verdict and a feasible placement. The
    /// polish and `reconcile`, started within capacity, end within
    /// capacity, at slack 1.15 too.
    #[test]
    fn repair_verdict_is_the_placement_check() {
        let (infeasible, feasible, kept) = (Cell::new(0u32), Cell::new(0u32), Cell::new(0u32));
        Checker::new("repair_verdict_is_the_placement_check")
            .cases(1000)
            .run(verdict_case, |c| {
                let mut b = CcaProblem::builder();
                let o: Vec<ObjectId> = (c.sizes.iter().enumerate())
                    .map(|(i, &s)| b.add_object(format!("o{i}"), s))
                    .collect();
                for &(a, d, r) in &c.edges {
                    if a != d {
                        b.add_pair(o[a], o[d], f64::from(r) / 997.0, 1.0)
                            .expect("valid pair");
                    }
                }
                b.capacities(c.capacities.clone());
                if let Some((demands, caps)) = &c.resource {
                    b.add_resource(Resource::new("bandwidth", demands.clone(), caps.clone()));
                }
                let p = b.build().expect("valid problem");
                let n = p.num_nodes();
                let start = Placement::new(c.start.clone(), n);
                let mut pl = start.clone();
                let out = repair_capacity_with(&p, &mut pl, c.slack, 0);
                prop_assert_eq!(out.feasible, pl.within_all_capacities(&p, c.slack));
                // The sweeps keep a feasible verdict's placement within
                // capacity and leave the verdict alone.
                let mut swept = start.clone();
                let verdict = repair_capacity(&p, &mut swept, c.slack).feasible;
                prop_assert_eq!(verdict, out.feasible);
                prop_assert!(!verdict || swept.within_all_capacities(&p, c.slack));
                infeasible.set(infeasible.get() + u32::from(!out.feasible));
                feasible.set(feasible.get() + u32::from(out.feasible && out.moves > 0));
                if start.within_all_capacities(&p, c.slack) {
                    let options = MigrateOptions {
                        capacity_slack: c.slack,
                        apply_nonpositive_gains: c.nonpositive,
                        ..MigrateOptions::default()
                    };
                    let polished = crate::migrate::improve_in_place(&p, &start, &options);
                    prop_assert!(polished.placement.within_all_capacities(&p, c.slack));
                    let desired = Placement::new(c.desired.clone(), n);
                    let moved = crate::migrate::reconcile(&p, &start, &desired, u64::MAX, &options);
                    prop_assert!(moved.placement.within_all_capacities(&p, c.slack));
                    kept.set(kept.get() + u32::from(polished.moves + moved.moves > 0));
                }
                Ok(())
            });
        assert!(
            infeasible.get() > 0 && feasible.get() > 0 && kept.get() > 0,
            "the generator must reach infeasible ({}) and repaired ({}) verdicts, and moves from \
             a start within capacity ({})",
            infeasible.get(),
            feasible.get(),
            kept.get()
        );
    }

    #[test]
    #[should_panic(expected = "slack must be at least")]
    fn slack_below_one_is_rejected() {
        let p = clustered();
        let mut pl = Placement::new(vec![0; 6], 2);
        let _ = repair_capacity(&p, &mut pl, 0.5);
    }
}
