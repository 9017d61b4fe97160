//! Migration-aware re-placement.
//!
//! The paper argues correlations are stable enough that a placement can be
//! computed offline and kept for a long time (Fig 2B). Eventually, though,
//! drift accumulates and a live system must *move* from its current
//! placement to a better one — and moving an index costs exactly the bytes
//! the placement was built to save. This module provides the operations a
//! deployment needs:
//!
//! * [`migration_bytes`] — the one-time cost of switching placements;
//! * [`reconcile`] — move toward a desired placement under a migration
//!   budget, applying the most valuable moves first;
//! * [`improve_in_place`] — local search from the current placement where
//!   every move must pay for itself against an amortised migration price;
//! * [`drain_node`] — evacuate a node for decommission or failure
//!   recovery, keeping correlation clusters together.

use crate::graph::IncrementalCost;
use crate::placement::Placement;
use crate::problem::{CcaProblem, ObjectId};
use crate::replica::{DomainTree, ReplicaPlacement};

/// Options for [`reconcile`] and [`improve_in_place`].
#[derive(Debug, Clone, Copy)]
pub struct MigrateOptions {
    /// Capacity slack applied to every dimension during moves.
    pub capacity_slack: f64,
    /// Maximum improvement sweeps.
    pub max_sweeps: usize,
    /// Amortised migration price in objective units per byte moved: a move
    /// of object `i` must reduce the communication cost by more than
    /// `migration_price_per_byte * s(i)` to be taken by
    /// [`improve_in_place`].
    pub migration_price_per_byte: f64,
    /// When set, [`reconcile`] also applies groups whose model gain is
    /// zero or negative once every paying group has been applied, so an
    /// unlimited budget converges to the desired placement. Off by
    /// default: the pair model slightly mispredicts replayed traffic, and
    /// neutral moves are usually node-relabelling noise not worth their
    /// bytes.
    pub apply_nonpositive_gains: bool,
}

impl Default for MigrateOptions {
    fn default() -> Self {
        MigrateOptions {
            capacity_slack: 1.05,
            max_sweeps: 4,
            migration_price_per_byte: 0.0,
            apply_nonpositive_gains: false,
        }
    }
}

/// Outcome of a migration pass.
#[derive(Debug, Clone)]
pub struct MigrationOutcome {
    /// The resulting placement.
    pub placement: Placement,
    /// Its communication cost.
    pub comm_cost: f64,
    /// Total bytes moved relative to the starting placement.
    pub migrated_bytes: u64,
    /// Number of objects moved.
    pub moves: usize,
}

/// Bytes that must be shipped to switch from `from` to `to`: the sizes of
/// all objects whose node changes.
///
/// ```
/// use cca_core::{migration_bytes, CcaProblem, Placement};
/// let mut b = CcaProblem::builder();
/// b.add_object("a", 100);
/// b.add_object("b", 50);
/// let problem = b.uniform_capacities(2, 200).build().unwrap();
/// let from = Placement::new(vec![0, 0], 2);
/// let to = Placement::new(vec![0, 1], 2);
/// assert_eq!(migration_bytes(&problem, &from, &to), 50);
/// ```
///
/// # Panics
///
/// Panics if the placements or problem disagree on dimensions.
#[must_use]
pub fn migration_bytes(problem: &CcaProblem, from: &Placement, to: &Placement) -> u64 {
    assert_eq!(from.num_objects(), problem.num_objects());
    assert_eq!(to.num_objects(), problem.num_objects());
    problem
        .objects()
        .filter(|&o| from.node_of(o) != to.node_of(o))
        .map(|o| problem.size(o))
        .sum()
}

/// Per-replica [`migration_bytes`]: the bytes moved when switching from
/// one replica placement to another, summing every copy whose home node
/// changed (column `j` of `from` against column `j` of `to`). With
/// `r = 1` this equals `migration_bytes` on the primary columns.
///
/// # Panics
///
/// Panics if the placements disagree on replica count or dimensions.
#[must_use]
pub fn replica_migration_bytes(
    problem: &CcaProblem,
    from: &ReplicaPlacement,
    to: &ReplicaPlacement,
) -> u64 {
    assert_eq!(
        from.replicas(),
        to.replicas(),
        "replica counts must match to diff placements"
    );
    from.columns()
        .iter()
        .zip(to.columns())
        .map(|(f, t)| migration_bytes(problem, f, t))
        .sum()
}

/// Outcome of a replica-aware migration pass.
#[derive(Debug, Clone)]
pub struct ReplicaMigrationOutcome {
    /// The resulting replica placement.
    pub replica: ReplicaPlacement,
    /// Its replica-aware communication cost
    /// ([`crate::graph::CorrelationGraph::cost_replicas`]).
    pub comm_cost: f64,
    /// Total bytes moved relative to the starting placement.
    pub migrated_bytes: u64,
    /// Number of copies moved.
    pub moves: usize,
}

/// Replica-aware [`improve_in_place`]: greedy per-copy local search where
/// every candidate target must (a) keep the spread invariant — the
/// target's leaf domain holds no *other* copy of the object — and (b)
/// fit the node's copy-inclusive storage load under
/// `capacity · capacity_slack`. Copies are visited object-major in
/// ascending id order, replica index ascending (primary first), targets
/// in ascending node order with a strict-improvement `<` selection, so
/// the walk is deterministic. Each copy with at least one admissible
/// target gets every target's delta from one row walk of
/// [`crate::problem::CcaProblem::eval_replica_move_deltas`]
/// (min-over-replica-choices split test).
///
/// # Panics
///
/// Panics if the tree and placement disagree on node count.
#[must_use]
pub fn improve_replicas_in_place(
    problem: &CcaProblem,
    tree: &DomainTree,
    current: &ReplicaPlacement,
    options: &MigrateOptions,
) -> ReplicaMigrationOutcome {
    assert_eq!(tree.num_nodes(), current.num_nodes());
    let mut rp = current.clone();
    let r = rp.replicas();
    let n = problem.num_nodes();
    let mut loads = rp.replica_loads(problem);
    let mut moves = 0usize;
    let mut migrated = 0u64;
    // Scratch reused by every visit: which targets pass the capacity and
    // spread filters, and every target's delta.
    let mut admissible = vec![false; n];
    let mut deltas = vec![0.0f64; n];
    let limits: Vec<f64> = (0..n)
        .map(|k| problem.capacity(k) as f64 * options.capacity_slack)
        .collect();
    for _ in 0..options.max_sweeps.max(1) {
        let mut improved = false;
        for o in problem.objects() {
            let size = problem.size(o);
            let price = options.migration_price_per_byte * size as f64;
            for j in 0..r {
                let src = rp.node_of(o, j);
                for ((ok, &load), &limit) in admissible.iter_mut().zip(&loads).zip(&limits) {
                    *ok = (load + size) as f64 <= limit;
                }
                admissible[src] = false;
                for k in (0..r).filter(|&k| k != j) {
                    for &node in tree.nodes_in(tree.domain_of(rp.node_of(o, k))) {
                        admissible[node] = false;
                    }
                }
                if !admissible.contains(&true) {
                    continue;
                }
                problem.eval_replica_move_deltas(&rp, o, j, &mut deltas);
                let mut best: Option<(f64, usize)> = None;
                for (k, (&ok, &delta)) in admissible.iter().zip(&deltas).enumerate() {
                    if ok && delta + price < -1e-12 && best.is_none_or(|(bd, _)| delta < bd) {
                        best = Some((delta, k));
                    }
                }
                if let Some((_, k)) = best {
                    loads[src] -= size;
                    loads[k] += size;
                    rp.assign(o, j, k);
                    migrated += size;
                    moves += 1;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    let comm_cost = problem.eval_cost_replicas(&rp, 1);
    ReplicaMigrationOutcome {
        replica: rp,
        comm_cost,
        migrated_bytes: migrated,
        moves,
    }
}

/// Tracks per-node, per-dimension loads for incremental feasibility
/// checks.
struct Loads {
    loads: Vec<Vec<f64>>,
    limits: Vec<Vec<f64>>,
    demands: Vec<Vec<f64>>,
}

impl Loads {
    fn new(problem: &CcaProblem, placement: &Placement, slack: f64) -> Self {
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
        let demands: Vec<Vec<f64>> =
            problem.objects().map(|o| problem.demand_vector(o)).collect();
        let mut loads = vec![vec![0.0; dims]; n];
        for o in problem.objects() {
            let k = placement.node_of(o);
            for (dst, d) in loads[k].iter_mut().zip(&demands[o.index()]) {
                *dst += d;
            }
        }
        Loads {
            loads,
            limits,
            demands,
        }
    }

    fn fits(&self, node: usize, obj: ObjectId) -> bool {
        self.loads[node]
            .iter()
            .zip(&self.demands[obj.index()])
            .zip(&self.limits[node])
            .all(|((&l, &d), &lim)| l + d <= lim + 1e-9)
    }

    fn apply(&mut self, obj: ObjectId, src: usize, dst: usize) {
        for dim in 0..self.demands[obj.index()].len() {
            let d = self.demands[obj.index()][dim];
            self.loads[src][dim] -= d;
            self.loads[dst][dim] += d;
        }
    }
}

/// Moves from `current` toward `desired` without exceeding
/// `budget_bytes` of migration traffic.
///
/// Objects whose node differs between the placements are grouped into
/// correlated components sharing a desired target (a cluster usually has
/// to move *together* for the move to pay off) and applied in order of
/// communication-cost gain per migrated byte, re-evaluated over up to
/// `options.max_sweeps` sweeps. By default only groups with a positive
/// model gain move; set
/// [`MigrateOptions::apply_nonpositive_gains`] to keep going while budget
/// remains, which converges to `desired` (up to capacity blocking).
///
/// # Panics
///
/// Panics if the placements or problem disagree on dimensions.
#[must_use]
pub fn reconcile(
    problem: &CcaProblem,
    current: &Placement,
    desired: &Placement,
    budget_bytes: u64,
    options: &MigrateOptions,
) -> MigrationOutcome {
    assert_eq!(desired.num_nodes(), current.num_nodes());
    let graph = problem.graph();
    let mut placement = current.clone();
    let mut loads = Loads::new(problem, &placement, options.capacity_slack);
    let mut budget = budget_bytes;
    let mut moves = 0usize;
    let mut migrated = 0u64;

    for _ in 0..options.max_sweeps.max(1) {
        // Pending objects, grouped into connected components that share a
        // desired target: a correlated group often has to move *together*
        // for the move to pay off, so gains are evaluated per component.
        let pending: Vec<ObjectId> = problem
            .objects()
            .filter(|&o| placement.node_of(o) != desired.node_of(o))
            .collect();
        if pending.is_empty() {
            break;
        }
        let pending_set: std::collections::HashSet<ObjectId> = pending.iter().copied().collect();
        let mut visited: std::collections::HashSet<ObjectId> = std::collections::HashSet::new();
        let mut candidates: Vec<(f64, u64, Vec<ObjectId>, usize)> = Vec::new();
        for &start in &pending {
            if visited.contains(&start) {
                continue;
            }
            let target = desired.node_of(start);
            // Flood over pending neighbours with the same target.
            let mut group = Vec::new();
            let mut stack = vec![start];
            visited.insert(start);
            while let Some(o) = stack.pop() {
                group.push(o);
                for (other, _) in graph.neighbors(o) {
                    if pending_set.contains(&other)
                        && !visited.contains(&other)
                        && desired.node_of(other) == target
                    {
                        visited.insert(other);
                        stack.push(other);
                    }
                }
            }
            // Gain of moving the whole group to the target at once.
            let in_group: std::collections::HashSet<ObjectId> = group.iter().copied().collect();
            let mut gain = 0.0;
            for &o in &group {
                let src = placement.node_of(o);
                for (other, w) in graph.neighbors(o) {
                    if in_group.contains(&other) {
                        // Internal edge: contributes only if the members
                        // are currently split (they will be together).
                        if placement.node_of(other) != src {
                            gain += w / 2.0; // counted from both endpoints
                        }
                        continue;
                    }
                    let on = placement.node_of(other);
                    if on == src {
                        gain -= w; // leaves a current partner behind
                    } else if on == target {
                        gain += w; // joins a partner at the target
                    }
                }
            }
            let bytes: u64 = group.iter().map(|&o| problem.size(o)).sum();
            if gain > 1e-12 || options.apply_nonpositive_gains {
                candidates.push((gain / (bytes.max(1)) as f64, bytes, group, target));
            }
        }
        if candidates.is_empty() {
            break;
        }
        candidates.sort_unstable_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.2[0].cmp(&b.2[0]))
        });
        let mut any = false;
        for (_, bytes, group, target) in candidates {
            if bytes > budget {
                continue;
            }
            // Capacity check for the whole group landing on the target
            // (members already there contribute nothing; none are, by
            // construction of `pending`).
            let fits_all = {
                let mut extra = vec![0.0; 1 + problem.resources().len()];
                for &o in &group {
                    for (e, d) in extra.iter_mut().zip(problem.demand_vector(o)) {
                        *e += d;
                    }
                }
                loads.loads[target]
                    .iter()
                    .zip(&extra)
                    .zip(&loads.limits[target])
                    .all(|((&l, &e), &lim)| l + e <= lim + 1e-9)
            };
            if !fits_all {
                continue;
            }
            for &o in &group {
                let src = placement.node_of(o);
                loads.apply(o, src, target);
                placement.assign(o, target);
                migrated += problem.size(o);
                moves += 1;
            }
            budget -= bytes;
            any = true;
        }
        if !any {
            break;
        }
    }

    MigrationOutcome {
        comm_cost: placement.communication_cost(problem),
        placement,
        migrated_bytes: migrated,
        moves,
    }
}

/// Local-search improvement from `current` where each move must pay for
/// its own migration: object `i` moves to node `k` only when the
/// communication-cost reduction exceeds
/// `options.migration_price_per_byte * s(i)`.
///
/// With a price of 0 this is plain capacity-respecting local search; with
/// a high price the placement freezes — exactly the knob an operator turns
/// as confidence in the new statistics grows.
///
/// # Panics
///
/// Panics if the placement and problem disagree on dimensions.
#[must_use]
pub fn improve_in_place(
    problem: &CcaProblem,
    current: &Placement,
    options: &MigrateOptions,
) -> MigrationOutcome {
    let graph = problem.graph();
    let mut placement = current.clone();
    let mut loads = Loads::new(problem, &placement, options.capacity_slack);
    // O(deg)-per-move deltas and a running objective, instead of O(|E|)
    // rescans per candidate.
    let mut inc = IncrementalCost::new(graph, &placement);
    let n = problem.num_nodes();
    let mut moves = 0usize;
    let mut migrated = 0u64;

    let mut fitting: Vec<usize> = Vec::with_capacity(n);
    for _ in 0..options.max_sweeps.max(1) {
        let mut improved = false;
        for o in problem.objects() {
            let src = placement.node_of(o);
            let price = options.migration_price_per_byte * problem.size(o) as f64;
            // One walk of o's CSR row scores every fitting target at once;
            // deltas are bit-identical to the per-target walks, and the
            // ascending-k strict-< selection below picks the same winner.
            fitting.clear();
            fitting.extend((0..n).filter(|&k| k != src && loads.fits(k, o)));
            let deltas = inc.delta_batch(&placement, o, &fitting);
            let mut best: Option<(f64, usize)> = None;
            for (&k, &delta) in fitting.iter().zip(&deltas) {
                // Must beat the migration price strictly.
                if delta + price < -1e-12 && best.is_none_or(|(bd, _)| delta < bd) {
                    best = Some((delta, k));
                }
            }
            if let Some((_, k)) = best {
                loads.apply(o, src, k);
                inc.apply(&mut placement, o, k);
                migrated += problem.size(o);
                moves += 1;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }

    // Reported cost stays the fresh full walk (bit-stable across releases);
    // the accumulator must agree up to float associativity.
    let comm_cost = placement.communication_cost(problem);
    debug_assert!(
        (inc.cost() - comm_cost).abs() <= 1e-9 * (1.0 + comm_cost.abs()),
        "incremental cost drifted from recompute: {} vs {comm_cost}",
        inc.cost()
    );
    MigrationOutcome {
        comm_cost,
        placement,
        migrated_bytes: migrated,
        moves,
    }
}

/// Evacuates every object from `node` (decommission, maintenance, or
/// failure recovery): each of the node's correlation clusters is re-homed
/// to the surviving node with the strongest pull (existing partners) that
/// fits it, largest clusters first; stragglers move object by object.
///
/// Returns `None` when the surviving capacity (with
/// `options.capacity_slack`) cannot absorb the node's objects.
///
/// # Panics
///
/// Panics if `node` is out of range, the placement has fewer than two
/// nodes, or dimensions disagree.
#[must_use]
pub fn drain_node(
    problem: &CcaProblem,
    current: &Placement,
    node: usize,
    options: &MigrateOptions,
) -> Option<MigrationOutcome> {
    assert!(node < current.num_nodes(), "node {node} out of range");
    assert!(current.num_nodes() > 1, "cannot drain the only node");
    let graph = problem.graph();
    let mut placement = current.clone();
    let mut loads = Loads::new(problem, &placement, options.capacity_slack);
    // The drained node accepts nothing.
    for lim in &mut loads.limits[node] {
        *lim = f64::NEG_INFINITY;
    }
    let mut moves = 0usize;
    let mut migrated = 0u64;

    // Correlation clusters on the drained node, largest first.
    let evacuees: Vec<ObjectId> = problem
        .objects()
        .filter(|&o| placement.node_of(o) == node)
        .collect();
    let evac_set: std::collections::HashSet<ObjectId> = evacuees.iter().copied().collect();
    let mut visited: std::collections::HashSet<ObjectId> = std::collections::HashSet::new();
    let mut groups: Vec<Vec<ObjectId>> = Vec::new();
    for &start in &evacuees {
        if visited.contains(&start) {
            continue;
        }
        let mut group = Vec::new();
        let mut stack = vec![start];
        visited.insert(start);
        while let Some(o) = stack.pop() {
            group.push(o);
            for (other, _) in graph.neighbors(o) {
                if evac_set.contains(&other) && !visited.contains(&other) {
                    visited.insert(other);
                    stack.push(other);
                }
            }
        }
        groups.push(group);
    }
    groups.sort_unstable_by_key(|g| {
        std::cmp::Reverse(g.iter().map(|&o| problem.size(o)).sum::<u64>())
    });

    let n = problem.num_nodes();
    for group in groups {
        // Try the whole group on the node with the strongest pull.
        let mut demand = vec![0.0; 1 + problem.resources().len()];
        for &o in &group {
            for (d, v) in demand.iter_mut().zip(problem.demand_vector(o)) {
                *d += v;
            }
        }
        let mut join = vec![0.0f64; n];
        for &o in &group {
            for (other, w) in graph.neighbors(o) {
                if !group.contains(&other) {
                    let on = placement.node_of(other);
                    if on != node {
                        join[on] += w;
                    }
                }
            }
        }
        let target = (0..n)
            .filter(|&k| k != node)
            .filter(|&k| {
                loads.loads[k]
                    .iter()
                    .zip(&demand)
                    .zip(&loads.limits[k])
                    .all(|((&l, &d), &lim)| l + d <= lim + 1e-9)
            })
            .max_by(|&a, &b| {
                join[a]
                    .partial_cmp(&join[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.cmp(&a))
            });
        if let Some(k) = target {
            for &o in &group {
                loads.apply(o, node, k);
                placement.assign(o, k);
                migrated += problem.size(o);
                moves += 1;
            }
            continue;
        }
        // Fragmented: per-object fallback, cheapest Δcost first; give up
        // (returning None) when an object fits nowhere. One row walk
        // scores all fitting survivors (each delta bit-equal to its
        // per-target walk), replacing the min_by's rescan per comparison.
        for &o in &group {
            let fitting: Vec<usize> = (0..n)
                .filter(|&k| k != node && loads.fits(k, o))
                .collect();
            // Dispatched through the problem so a sharded instance walks
            // its shard row (bit-identical to the flat row for any shard
            // count).
            let deltas = problem.eval_move_delta_batch(&placement, o, &fitting);
            let target = *fitting
                .iter()
                .zip(&deltas)
                .min_by(|(a, da), (b, db)| {
                    da.partial_cmp(db)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(b))
                })
                .map(|(k, _)| k)?;
            loads.apply(o, node, target);
            placement.assign(o, target);
            migrated += problem.size(o);
            moves += 1;
        }
    }

    Some(MigrationOutcome {
        comm_cost: placement.communication_cost(problem),
        placement,
        migrated_bytes: migrated,
        moves,
    })
}

/// One budget-bounded step of a [`MigrationSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationSlice {
    /// Objects moved in this slice.
    pub moves: u64,
    /// Bytes shipped in this slice. Never exceeds the budget passed to
    /// [`MigrationSchedule::advance`].
    pub bytes: u64,
    /// Objects still off their desired node after this slice.
    pub remaining_objects: u64,
    /// Bytes still to ship after this slice.
    pub remaining_bytes: u64,
    /// The placement now matches the schedule's desired placement.
    pub complete: bool,
    /// Nothing moved although a diff remains: every pending object is
    /// either larger than the slice budget or blocked by capacity. The
    /// caller should abandon the schedule — retrying cannot make
    /// progress under the same budget and loads.
    pub stalled: bool,
}

/// A controller-approved migration executed as a sequence of
/// byte-budgeted slices instead of one bulk [`reconcile`] — the pacing
/// half of the live runtime contract (DESIGN.md §14). Each epoch the
/// runtime calls [`advance`](MigrationSchedule::advance) with that
/// epoch's byte budget; the slice moves at most that many bytes, so
/// foreground serving latency is never hit by an unbounded re-pack.
#[derive(Debug, Clone)]
pub struct MigrationSchedule {
    desired: Placement,
    options: MigrateOptions,
    slices: u64,
    total_moves: u64,
    total_bytes: u64,
}

impl MigrationSchedule {
    /// Stages a schedule toward `desired`. `apply_nonpositive_gains` is
    /// forced on: the gain accounting already happened when the
    /// controller accepted the migration, and a paced schedule must
    /// converge to the approved placement rather than stop at the
    /// model's break-even point.
    #[must_use]
    pub fn new(desired: Placement, options: MigrateOptions) -> Self {
        MigrationSchedule {
            desired,
            options: MigrateOptions {
                apply_nonpositive_gains: true,
                ..options
            },
            slices: 0,
            total_moves: 0,
            total_bytes: 0,
        }
    }

    /// The placement this schedule is converging to.
    #[must_use]
    pub fn desired(&self) -> &Placement {
        &self.desired
    }

    /// Slices applied so far.
    #[must_use]
    pub fn slices(&self) -> u64 {
        self.slices
    }

    /// Objects moved across all slices so far.
    #[must_use]
    pub fn total_moves(&self) -> u64 {
        self.total_moves
    }

    /// Bytes shipped across all slices so far.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Applies one slice of at most `budget_bytes` toward the desired
    /// placement, mutating `placement` in place.
    ///
    /// Two passes, both deterministic: first a grouped [`reconcile`]
    /// slice (correlated components move together, best gain per byte
    /// first); then, only when the grouped pass moved nothing while a
    /// diff remains, a per-object fallback in ascending object order —
    /// `reconcile` skips any component larger than the budget, so
    /// without the fallback a big cluster under a small budget would
    /// stall forever instead of trickling over several epochs.
    ///
    /// # Panics
    ///
    /// Panics if the placements or problem disagree on dimensions.
    pub fn advance(
        &mut self,
        problem: &CcaProblem,
        placement: &mut Placement,
        budget_bytes: u64,
    ) -> MigrationSlice {
        let out = reconcile(problem, placement, &self.desired, budget_bytes, &self.options);
        let mut moves = out.moves as u64;
        let mut bytes = out.migrated_bytes;
        *placement = out.placement;

        if bytes == 0 {
            let mut loads = Loads::new(problem, placement, self.options.capacity_slack);
            let mut remaining = budget_bytes;
            for o in problem.objects() {
                let target = self.desired.node_of(o);
                let src = placement.node_of(o);
                if src == target {
                    continue;
                }
                let size = problem.size(o);
                if size > remaining || !loads.fits(target, o) {
                    continue;
                }
                loads.apply(o, src, target);
                placement.assign(o, target);
                remaining -= size;
                bytes += size;
                moves += 1;
            }
        }
        debug_assert!(bytes <= budget_bytes, "slice {bytes} over budget {budget_bytes}");

        self.slices += 1;
        self.total_moves += moves;
        self.total_bytes += bytes;
        let (remaining_objects, remaining_bytes) = problem
            .objects()
            .filter(|&o| placement.node_of(o) != self.desired.node_of(o))
            .fold((0u64, 0u64), |(n, b), o| (n + 1, b + problem.size(o)));
        MigrationSlice {
            moves,
            bytes,
            remaining_objects,
            remaining_bytes,
            complete: remaining_objects == 0,
            stalled: moves == 0 && remaining_objects > 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> CcaProblem {
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..6).map(|i| b.add_object(format!("o{i}"), 10)).collect();
        for g in 0..2 {
            for i in 0..3 {
                for j in i + 1..3 {
                    b.add_pair(o[g * 3 + i], o[g * 3 + j], 0.9, 10.0).unwrap();
                }
            }
        }
        b.uniform_capacities(2, 40).build().unwrap()
    }

    #[test]
    fn migration_bytes_counts_changed_objects() {
        let p = problem();
        let a = Placement::new(vec![0, 0, 0, 1, 1, 1], 2);
        let b = Placement::new(vec![0, 0, 1, 1, 1, 0], 2);
        assert_eq!(migration_bytes(&p, &a, &a), 0);
        assert_eq!(migration_bytes(&p, &a, &b), 20);
    }

    #[test]
    fn reconcile_with_zero_budget_is_identity() {
        let p = problem();
        let scattered = Placement::new(vec![0, 1, 0, 1, 0, 1], 2);
        let desired = Placement::new(vec![0, 0, 0, 1, 1, 1], 2);
        let out = reconcile(&p, &scattered, &desired, 0, &MigrateOptions::default());
        assert_eq!(out.placement, scattered);
        assert_eq!(out.migrated_bytes, 0);
        assert_eq!(out.moves, 0);
    }

    #[test]
    fn reconcile_with_ample_budget_reaches_desired_cost() {
        let p = problem();
        let scattered = Placement::new(vec![0, 1, 0, 1, 0, 1], 2);
        let desired = Placement::new(vec![0, 0, 0, 1, 1, 1], 2);
        let out = reconcile(&p, &scattered, &desired, u64::MAX, &MigrateOptions::default());
        assert_eq!(out.comm_cost, desired.communication_cost(&p));
        assert_eq!(out.comm_cost, 0.0);
        assert!(out.migrated_bytes <= migration_bytes(&p, &scattered, &desired));
        assert!(out.placement.within_all_capacities(&p, 1.05 + 1e-9));
    }

    #[test]
    fn reconcile_respects_budget_and_prioritises_gain() {
        let p = problem();
        let scattered = Placement::new(vec![0, 1, 0, 1, 0, 1], 2);
        let desired = Placement::new(vec![0, 0, 0, 1, 1, 1], 2);
        // Budget for exactly one object move.
        let out = reconcile(&p, &scattered, &desired, 10, &MigrateOptions::default());
        assert!(out.migrated_bytes <= 10);
        assert!(out.moves <= 1);
        // Any applied move must improve cost.
        assert!(out.comm_cost <= scattered.communication_cost(&p));
    }

    #[test]
    fn improve_in_place_fixes_obvious_misplacements() {
        let p = problem();
        // o2 stranded away from its triangle.
        let start = Placement::new(vec![0, 0, 1, 1, 1, 1], 2);
        let out = improve_in_place(&p, &start, &MigrateOptions::default());
        assert_eq!(out.placement.node_of(crate::problem::ObjectId(2)), 0);
        assert_eq!(out.comm_cost, 0.0);
        assert_eq!(out.migrated_bytes, 10);
    }

    #[test]
    fn migration_price_freezes_marginal_moves() {
        let p = problem();
        let start = Placement::new(vec![0, 0, 1, 1, 1, 1], 2);
        // Gain of moving o2 home is 2 * 9 = 18; price above that freezes.
        let expensive = MigrateOptions {
            migration_price_per_byte: 2.0, // 2.0 * 10 bytes = 20 > 18
            ..MigrateOptions::default()
        };
        let out = improve_in_place(&p, &start, &expensive);
        assert_eq!(out.moves, 0);
        assert_eq!(out.placement, start);

        let cheap = MigrateOptions {
            migration_price_per_byte: 1.0, // 10 < 18: worth it
            ..MigrateOptions::default()
        };
        let out = improve_in_place(&p, &start, &cheap);
        assert!(out.moves >= 1);
        assert_eq!(out.comm_cost, 0.0);
    }

    #[test]
    fn capacity_blocks_moves() {
        let mut b = CcaProblem::builder();
        let a = b.add_object("a", 10);
        let c = b.add_object("b", 10);
        b.add_pair(a, c, 1.0, 5.0).unwrap();
        let p = b.uniform_capacities(2, 10).build().unwrap();
        let start = Placement::new(vec![0, 1], 2);
        let desired = Placement::new(vec![0, 0], 2); // infeasible target
        let out = reconcile(&p, &start, &desired, u64::MAX, &MigrateOptions {
            capacity_slack: 1.0,
            ..MigrateOptions::default()
        });
        assert_eq!(out.placement, start, "capacity must block the move");
    }

    #[test]
    fn drain_moves_clusters_wholesale() {
        let p = problem();
        let start = Placement::new(vec![0, 0, 0, 1, 1, 1], 2);
        // Need a third node so draining node 0 has somewhere to go.
        let p3 = p.with_capacities(vec![40, 40, 40]);
        let start3 = Placement::new(vec![0, 0, 0, 1, 1, 1], 3);
        let out = drain_node(&p3, &start3, 0, &MigrateOptions::default()).expect("drainable");
        for i in 0..3u32 {
            assert_ne!(out.placement.node_of(crate::problem::ObjectId(i)), 0);
        }
        // The triangle stays together: zero cost.
        assert_eq!(out.comm_cost, 0.0);
        assert_eq!(out.migrated_bytes, 30);
        assert_eq!(out.moves, 3);
        let _ = start;
    }

    #[test]
    fn drain_prefers_nodes_with_partners() {
        // Object 0 on node 0, its partners on node 2 of 3: drain should
        // send it to node 2, not node 1.
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..3).map(|i| b.add_object(format!("o{i}"), 5)).collect();
        b.add_pair(o[0], o[1], 0.9, 10.0).unwrap();
        b.add_pair(o[0], o[2], 0.9, 10.0).unwrap();
        let p = b.uniform_capacities(3, 20).build().unwrap();
        let start = Placement::new(vec![0, 2, 2], 3);
        let out = drain_node(&p, &start, 0, &MigrateOptions::default()).expect("drainable");
        assert_eq!(out.placement.node_of(o[0]), 2);
        assert_eq!(out.comm_cost, 0.0);
    }

    #[test]
    fn drain_fails_when_capacity_missing() {
        let mut b = CcaProblem::builder();
        b.add_object("a", 10);
        b.add_object("b", 10);
        let p = b.uniform_capacities(2, 10).build().unwrap();
        let start = Placement::new(vec![0, 1], 2);
        // Node 1 is full (10/10): draining node 0 cannot fit `a` anywhere.
        assert!(drain_node(&p, &start, 0, &MigrateOptions {
            capacity_slack: 1.0,
            ..MigrateOptions::default()
        })
        .is_none());
    }

    #[test]
    fn schedule_slices_respect_budget_and_converge() {
        let p = problem();
        let mut placement = Placement::new(vec![0, 1, 0, 1, 0, 1], 2);
        let desired = Placement::new(vec![0, 0, 0, 1, 1, 1], 2);
        let total = migration_bytes(&p, &placement, &desired);
        let mut schedule = MigrationSchedule::new(desired.clone(), MigrateOptions::default());
        let mut shipped = 0u64;
        for _ in 0..16 {
            let slice = schedule.advance(&p, &mut placement, 10);
            assert!(slice.bytes <= 10, "slice over budget: {slice:?}");
            assert!(!slice.stalled, "feasible schedule stalled: {slice:?}");
            shipped += slice.bytes;
            if slice.complete {
                break;
            }
        }
        assert_eq!(placement, desired);
        assert_eq!(shipped, total);
        assert_eq!(schedule.total_bytes(), total);
        assert_eq!(schedule.total_moves(), total / 10);
    }

    #[test]
    fn schedule_falls_back_per_object_for_oversized_groups() {
        // A two-object correlated cluster (20 bytes) under a 10-byte
        // budget: the grouped reconcile pass skips it every slice, so
        // the per-object fallback must trickle it over two epochs.
        let mut b = CcaProblem::builder();
        let a = b.add_object("a", 10);
        let c = b.add_object("b", 10);
        b.add_pair(a, c, 0.9, 10.0).unwrap();
        let p = b.uniform_capacities(2, 40).build().unwrap();
        let mut placement = Placement::new(vec![1, 1], 2);
        let desired = Placement::new(vec![0, 0], 2);
        let mut schedule = MigrationSchedule::new(desired.clone(), MigrateOptions::default());

        let first = schedule.advance(&p, &mut placement, 10);
        assert_eq!(first.bytes, 10);
        assert_eq!(first.moves, 1);
        assert_eq!(first.remaining_objects, 1);
        assert!(!first.complete && !first.stalled);

        let second = schedule.advance(&p, &mut placement, 10);
        assert_eq!(second.bytes, 10);
        assert!(second.complete);
        assert_eq!(placement, desired);
    }

    #[test]
    fn schedule_stalls_when_budget_below_every_object() {
        let p = problem();
        let mut placement = Placement::new(vec![0, 1, 0, 1, 0, 1], 2);
        let desired = Placement::new(vec![0, 0, 0, 1, 1, 1], 2);
        let mut schedule = MigrationSchedule::new(desired, MigrateOptions::default());
        // Every object is 10 bytes; a 5-byte budget can never move one.
        let slice = schedule.advance(&p, &mut placement, 5);
        assert_eq!(slice.bytes, 0);
        assert_eq!(slice.moves, 0);
        assert!(slice.stalled);
        assert!(!slice.complete);
        assert_eq!(placement, Placement::new(vec![0, 1, 0, 1, 0, 1], 2));
    }

    #[test]
    fn schedule_unlimited_budget_completes_in_one_slice() {
        let p = problem();
        let mut placement = Placement::new(vec![0, 1, 0, 1, 0, 1], 2);
        let desired = Placement::new(vec![0, 0, 0, 1, 1, 1], 2);
        let mut schedule = MigrationSchedule::new(desired.clone(), MigrateOptions::default());
        let slice = schedule.advance(&p, &mut placement, u64::MAX);
        assert!(slice.complete);
        assert_eq!(slice.remaining_bytes, 0);
        assert_eq!(placement, desired);
    }

    #[test]
    #[should_panic(expected = "cannot drain the only node")]
    fn drain_single_node_panics() {
        let mut b = CcaProblem::builder();
        b.add_object("a", 1);
        let p = b.uniform_capacities(1, 10).build().unwrap();
        let start = Placement::new(vec![0], 1);
        let _ = drain_node(&p, &start, 0, &MigrateOptions::default());
    }
}
