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
//!   every move must pay for itself against an amortised migration price.
//!
//! Evacuating a node (decommission or failure recovery) is
//! [`crate::resilience::survive_node_loss`]: zero the node's capacity,
//! repair, polish.
//!
//! Every mover here, the capacity repair of [`crate::repair`], the copy
//! rule of [`crate::replica`], greedy and the exact search keep their
//! loads in one capacity ledger (`Loads`, beside the capacity rule in
//! [`crate::resources`]) and check every dimension of it: storage and
//! each secondary resource (paper §3.3). The local search is written
//! once, as the spread-preserving replica polish of
//! [`improve_replicas_in_place`]; [`improve_in_place`] is its `r = 1`
//! case over a flat domain tree, and every single-copy move delta is the
//! `r = 1` replica kernel.

use crate::graph::GroupWalk;
use crate::placement::Placement;
use crate::problem::{CcaProblem, ObjectId};
use crate::replica::{DomainTree, ReplicaPlacement};
use crate::resources::Loads;

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
/// fit the copy under `capacity · capacity_slack` in every dimension of
/// its copy-inclusive load: storage and each secondary resource. Copies
/// are visited object-major in ascending id order, replica index
/// ascending (primary first), targets in ascending node order with a
/// strict-improvement `<` selection, so the walk is deterministic. Each
/// copy with at least one admissible target gets every target's delta
/// from one row walk of
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
    let mut loads = Loads::new(problem, rp.columns(), options.capacity_slack);
    let (moves, migrated_bytes) = polish(problem, tree, &mut rp, &mut loads, options);
    ReplicaMigrationOutcome {
        comm_cost: problem.eval_cost_replicas(&rp, 1),
        replica: rp,
        migrated_bytes,
        moves,
    }
}

/// The one local search behind [`improve_replicas_in_place`],
/// [`improve_in_place`] and the sweeps of [`crate::repair::repair_capacity`]:
/// at most `options.max_sweeps` sweeps (at least one), until one moves
/// nothing. Capacity comes from `loads` (not `options.capacity_slack`),
/// which every move updates. Returns `(moves, bytes moved)`.
pub(crate) fn polish(
    problem: &CcaProblem,
    tree: &DomainTree,
    rp: &mut ReplicaPlacement,
    loads: &mut Loads,
    options: &MigrateOptions,
) -> (usize, u64) {
    let r = rp.replicas();
    let n = rp.num_nodes();
    let mut moves = 0usize;
    let mut migrated = 0u64;
    // Scratch reused by every visit: which targets pass the capacity and
    // spread filters, and every target's delta.
    let mut admissible = vec![false; n];
    let mut deltas = vec![0.0f64; n];
    for _ in 0..options.max_sweeps.max(1) {
        let mut improved = false;
        for o in problem.objects() {
            let size = problem.size(o);
            let price = options.migration_price_per_byte * size as f64;
            for j in 0..r {
                let src = rp.node_of(o, j);
                loads.fit_row(o, &mut admissible);
                admissible[src] = false;
                for k in (0..r).filter(|&k| k != j) {
                    for &node in tree.nodes_in(tree.domain_of(rp.node_of(o, k))) {
                        admissible[node] = false;
                    }
                }
                if !admissible.contains(&true) {
                    continue;
                }
                problem.eval_replica_move_deltas(rp, o, j, &mut deltas);
                let mut best: Option<(f64, usize)> = None;
                for (k, (&ok, &delta)) in admissible.iter().zip(&deltas).enumerate() {
                    if ok && delta + price < -1e-12 && best.is_none_or(|(bd, _)| delta < bd) {
                        best = Some((delta, k));
                    }
                }
                if let Some((_, k)) = best {
                    loads.apply(o, src, k);
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
    (moves, migrated)
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
    let mut loads = Loads::new(
        problem,
        std::slice::from_ref(current),
        options.capacity_slack,
    );
    let mut budget = budget_bytes;
    let mut moves = 0usize;
    let mut migrated = 0u64;

    let mut groups = GroupWalk::new(problem.num_objects(), problem.num_nodes());
    for _ in 0..options.max_sweeps.max(1) {
        // Pending objects, grouped into connected components that share a
        // desired target: a correlated group often has to move *together*
        // for the move to pay off, so gains are evaluated per component.
        let pending = |o: ObjectId| placement.node_of(o) != desired.node_of(o);
        groups.walk(
            graph,
            problem.objects().filter(|&o| pending(o)),
            |o, other| pending(other) && desired.node_of(other) == desired.node_of(o),
        );
        // (gain per byte, bytes, group): groups come in ascending root order.
        let mut candidates: Vec<(f64, u64, usize)> = Vec::new();
        for g in 0..groups.len() {
            let target = desired.node_of(groups.group(g)[0]);
            // Gain of moving the whole group to the target at once: its
            // split edges join, the partners it leaves behind split, and
            // the partners on the target join (no member is on it yet).
            let (split, left) = groups.fold(graph, g, &placement);
            let gain = split - left + groups.join(target);
            let bytes: u64 = groups.group(g).iter().map(|&o| problem.size(o)).sum();
            if gain > 1e-12 || options.apply_nonpositive_gains {
                candidates.push((gain / (bytes.max(1)) as f64, bytes, g));
            }
        }
        if candidates.is_empty() {
            break;
        }
        candidates.sort_unstable_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.2.cmp(&b.2))
        });
        let mut any = false;
        for (_, bytes, g) in candidates {
            let group = groups.group(g);
            let target = desired.node_of(group[0]);
            // The whole group must fit on the target (members already
            // there contribute nothing; none are, by construction of
            // `pending`).
            if bytes > budget || !loads.fits_demand(target, &loads.demand(group)) {
                continue;
            }
            for &o in group {
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
/// `options.migration_price_per_byte * s(i)` and `i` fits on `k` in every
/// dimension under `capacity · capacity_slack`.
///
/// With a price of 0 this is plain capacity-respecting local search; with
/// a high price the placement freezes — exactly the knob an operator turns
/// as confidence in the new statistics grows.
///
/// This is [`improve_replicas_in_place`] with one copy per object over a
/// flat domain tree; the reported cost is the flat
/// [`Placement::communication_cost`].
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
    let mut rp = ReplicaPlacement::from_primary(current.clone());
    let mut loads = Loads::new(problem, rp.columns(), options.capacity_slack);
    let tree = DomainTree::flat(current.num_nodes());
    let (moves, migrated_bytes) = polish(problem, &tree, &mut rp, &mut loads, options);
    let placement = rp.into_primary();
    MigrationOutcome {
        comm_cost: placement.communication_cost(problem),
        placement,
        migrated_bytes,
        moves,
    }
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
        }
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
        let out = reconcile(
            problem,
            placement,
            &self.desired,
            budget_bytes,
            &self.options,
        );
        let mut moves = out.moves as u64;
        let mut bytes = out.migrated_bytes;
        *placement = out.placement;

        if bytes == 0 {
            let mut loads = Loads::new(
                problem,
                std::slice::from_ref(placement),
                self.options.capacity_slack,
            );
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
        debug_assert!(
            bytes <= budget_bytes,
            "slice {bytes} over budget {budget_bytes}"
        );
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

/// `improve_in_place` as it was before it became the `r = 1` polish,
/// with its own nested capacity ledger. Kept verbatim, except that the
/// removed `IncrementalCost` wrapper is replaced by the two calls it made
/// (the single-copy delta kernel, now the test-only
/// `single_copy_move_deltas`, and `Placement::assign`), as the
/// differential oracle the polish must match move for move.
///
/// `reconcile` as it was before the group walk, with its own hashed DFS
/// (`components`) and its own gain loop, and
/// `MigrationSchedule::advance` over it without the schedule's tallies:
/// their logic kept verbatim as the differential oracles of the grouped
/// movers.
#[cfg(test)]
mod reference {
    use super::{Loads as Ledger, MigrateOptions, MigrationOutcome, MigrationSlice};
    use crate::graph::single_copy_move_deltas;
    use crate::placement::Placement;
    use crate::problem::{CcaProblem, ObjectId};

    pub(super) fn reconcile(
        problem: &CcaProblem,
        current: &Placement,
        desired: &Placement,
        budget_bytes: u64,
        options: &MigrateOptions,
    ) -> MigrationOutcome {
        assert_eq!(desired.num_nodes(), current.num_nodes());
        let graph = problem.graph();
        let mut placement = current.clone();
        let mut loads = Ledger::new(
            problem,
            std::slice::from_ref(current),
            options.capacity_slack,
        );
        let mut budget = budget_bytes;
        let mut moves = 0usize;
        let mut migrated = 0u64;

        for _ in 0..options.max_sweeps.max(1) {
            let pending: Vec<ObjectId> = problem
                .objects()
                .filter(|&o| placement.node_of(o) != desired.node_of(o))
                .collect();
            if pending.is_empty() {
                break;
            }
            let mut candidates: Vec<(f64, u64, Vec<ObjectId>, usize)> = Vec::new();
            let same_target = |a, b| desired.node_of(a) == desired.node_of(b);
            for group in components(problem, &pending, same_target) {
                let target = desired.node_of(group[0]);
                let in_group: std::collections::HashSet<ObjectId> = group.iter().copied().collect();
                let mut gain = 0.0;
                for &o in &group {
                    let src = placement.node_of(o);
                    for (other, w) in graph.neighbors(o) {
                        if in_group.contains(&other) {
                            if placement.node_of(other) != src {
                                gain += w / 2.0;
                            }
                            continue;
                        }
                        let on = placement.node_of(other);
                        if on == src {
                            gain -= w;
                        } else if on == target {
                            gain += w;
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
                if bytes > budget || !loads.fits_demand(target, &loads.demand(&group)) {
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

    fn components(
        problem: &CcaProblem,
        seeds: &[ObjectId],
        joins: impl Fn(ObjectId, ObjectId) -> bool,
    ) -> Vec<Vec<ObjectId>> {
        let is_seed: std::collections::HashSet<ObjectId> = seeds.iter().copied().collect();
        let mut visited = std::collections::HashSet::new();
        let mut groups = Vec::new();
        for &start in seeds {
            if !visited.insert(start) {
                continue;
            }
            let mut group = Vec::new();
            let mut stack = vec![start];
            while let Some(o) = stack.pop() {
                group.push(o);
                for (other, _) in problem.graph().neighbors(o) {
                    if is_seed.contains(&other) && joins(start, other) && visited.insert(other) {
                        stack.push(other);
                    }
                }
            }
            groups.push(group);
        }
        groups
    }

    /// One slice of a schedule toward `desired` under `options` (with
    /// `apply_nonpositive_gains` already forced on).
    pub(super) fn advance(
        problem: &CcaProblem,
        desired: &Placement,
        options: &MigrateOptions,
        placement: &mut Placement,
        budget_bytes: u64,
    ) -> MigrationSlice {
        let out = reconcile(problem, placement, desired, budget_bytes, options);
        let mut moves = out.moves as u64;
        let mut bytes = out.migrated_bytes;
        *placement = out.placement;

        if bytes == 0 {
            let mut loads = Ledger::new(
                problem,
                std::slice::from_ref(placement),
                options.capacity_slack,
            );
            let mut remaining = budget_bytes;
            for o in problem.objects() {
                let target = desired.node_of(o);
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
        let (remaining_objects, remaining_bytes) = problem
            .objects()
            .filter(|&o| placement.node_of(o) != desired.node_of(o))
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
            let demands: Vec<Vec<f64>> = problem
                .objects()
                .map(|o| {
                    (problem.dimensions().iter())
                        .map(|d| d.demand(o.index()) as f64)
                        .collect()
                })
                .collect();
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

    pub(super) fn improve_in_place(
        problem: &CcaProblem,
        current: &Placement,
        options: &MigrateOptions,
    ) -> MigrationOutcome {
        let mut placement = current.clone();
        let mut loads = Loads::new(problem, &placement, options.capacity_slack);
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
                let deltas = single_copy_move_deltas(problem.graph(), &placement, o, &fitting);
                let mut best: Option<(f64, usize)> = None;
                for (&k, &delta) in fitting.iter().zip(&deltas) {
                    // Must beat the migration price strictly.
                    if delta + price < -1e-12 && best.is_none_or(|(bd, _)| delta < bd) {
                        best = Some((delta, k));
                    }
                }
                if let Some((_, k)) = best {
                    loads.apply(o, src, k);
                    placement.assign(o, k);
                    migrated += problem.size(o);
                    moves += 1;
                    improved = true;
                }
            }
            if !improved {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::Resource;
    use cca_check::{prop_assert_eq, Checker, Rng, Shrink, StdRng};
    use cca_rand::seq::SliceRandom;
    use std::cell::Cell;

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
        let out = reconcile(
            &p,
            &scattered,
            &desired,
            u64::MAX,
            &MigrateOptions::default(),
        );
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
        let out = reconcile(
            &p,
            &start,
            &desired,
            u64::MAX,
            &MigrateOptions {
                capacity_slack: 1.0,
                ..MigrateOptions::default()
            },
        );
        assert_eq!(out.placement, start, "capacity must block the move");
    }

    #[test]
    fn schedule_slices_respect_budget_and_converge() {
        let p = problem();
        let mut placement = Placement::new(vec![0, 1, 0, 1, 0, 1], 2);
        let desired = Placement::new(vec![0, 0, 0, 1, 1, 1], 2);
        let total = migration_bytes(&p, &placement, &desired);
        let mut schedule = MigrationSchedule::new(desired.clone(), MigrateOptions::default());
        let (mut shipped, mut moved) = (0u64, 0u64);
        for _ in 0..16 {
            let slice = schedule.advance(&p, &mut placement, 10);
            assert!(slice.bytes <= 10, "slice over budget: {slice:?}");
            assert!(!slice.stalled, "feasible schedule stalled: {slice:?}");
            shipped += slice.bytes;
            moved += slice.moves;
            if slice.complete {
                break;
            }
        }
        assert_eq!(placement, desired);
        assert_eq!(shipped, total);
        assert_eq!(moved, total / 10);
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

    /// A random instance for the `r = 1` differential property.
    #[derive(Debug, Clone)]
    struct PolishCase {
        sizes: Vec<u64>,
        /// Optional secondary resource: per-object demands, per-node
        /// capacities.
        resource: Option<(Vec<u64>, Vec<u64>)>,
        /// `(a, b, correlation in 997ths, comm cost in 7ths)`: weights
        /// are not dyadic, so the graph snaps them to its quantum.
        edges: Vec<(usize, usize, u32, u32)>,
        capacities: Vec<u64>,
        start: Vec<u32>,
        slack: f64,
        price: f64,
        sweeps: usize,
        shards: Option<usize>,
    }

    impl Shrink for PolishCase {
        fn shrink(&self) -> Vec<Self> {
            let mut out: Vec<Self> = (self.edges.shrink().into_iter())
                .map(|edges| PolishCase {
                    edges,
                    ..self.clone()
                })
                .collect();
            for sweeps in self.sweeps.shrink().into_iter().filter(|&s| s >= 1) {
                out.push(PolishCase {
                    sweeps,
                    ..self.clone()
                });
            }
            out
        }
    }

    /// 1–80 objects in shuffled groups of 1–6 with mostly in-group edges,
    /// on 1–8 nodes with 60–220% of an even share of storage, a secondary
    /// resource in half the cases, starting all on node 0, at random or
    /// round-robin. One case in four gives every edge one weight, so
    /// targets tie. One case in five is a rounding edge: objects of 1–5
    /// bytes on nodes of 100 at slack 1.15, where `100 · 1.15` is just
    /// under 115 and only the fit test's tolerance admits a load of 115.
    fn polish_case(rng: &mut StdRng) -> PolishCase {
        let edge = rng.random_bool(0.2);
        let t = rng.random_range(1usize..=80);
        let max_size = if edge { 5 } else { 40 };
        let sizes: Vec<u64> = (0..t).map(|_| rng.random_range(1..=max_size)).collect();
        let total: u64 = sizes.iter().sum();
        let n = match edge {
            true => (total / 100 + 1).min(8) as usize,
            false => rng.random_range(1usize..=8),
        };
        let mut order: Vec<usize> = (0..t).collect();
        order.shuffle(rng);
        let mut edges = Vec::new();
        let ties = rng.random_bool(0.25);
        let weight = |rng: &mut StdRng| match ties {
            true => (499, 7),
            false => (rng.random_range(1u32..=997), rng.random_range(1u32..=70)),
        };
        let mut rest = &order[..];
        while !rest.is_empty() {
            let (group, tail) = rest.split_at(rng.random_range(1..=6).min(rest.len()));
            for w in group.windows(2) {
                if rng.random_bool(0.85) {
                    let (r, c) = weight(rng);
                    edges.push((w[0], w[1], r, c));
                }
            }
            rest = tail;
        }
        for _ in 0..rng.random_range(0..=t / 4) {
            let (r, c) = weight(rng);
            edges.push((rng.random_range(0..t), rng.random_range(0..t), r, c));
        }
        let share = |rng: &mut StdRng, total: u64, pct: std::ops::RangeInclusive<u64>| {
            total * rng.random_range(pct) / (100 * n as u64)
        };
        let capacities = match edge {
            true => vec![100; n],
            false => (0..n).map(|_| share(rng, total, 60..=220).max(1)).collect(),
        };
        let resource = rng.random_bool(0.5).then(|| {
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
        PolishCase {
            sizes,
            resource,
            edges,
            capacities,
            start,
            slack: match edge {
                true => 1.15,
                false => [1.0, 1.05, 1.15, 1.3, 2.0][rng.random_range(0..5)],
            },
            price: [0.0, 0.0, 0.01, 0.1][rng.random_range(0..4)],
            sweeps: rng.random_range(1..=4),
            shards: [None, Some(1), Some(2), Some(3)][rng.random_range(0..4)],
        }
    }

    fn polish_problem(c: &PolishCase) -> CcaProblem {
        let mut b = CcaProblem::builder();
        let o: Vec<ObjectId> = (c.sizes.iter().enumerate())
            .map(|(i, &s)| b.add_object(format!("o{i}"), s))
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
        let mut p = b.build().expect("valid problem");
        if let Some(s) = c.shards {
            p.set_sharding(s, 2);
        }
        p
    }

    /// `improve_in_place`, now the `r = 1` polish over a flat tree, makes
    /// the old implementation's every move: same placement, moves, bytes
    /// and cost bits, secondary resources and the fit test's tolerance
    /// included. The replica entry at `r = 1` takes the same moves.
    #[test]
    fn improve_in_place_matches_reference_move_for_move() {
        let (moved, resource_moved) = (Cell::new(0u32), Cell::new(0u32));
        Checker::new("improve_in_place_matches_reference_move_for_move")
            .cases(1500)
            .run(polish_case, |c| {
                let p = polish_problem(c);
                let start = Placement::new(c.start.clone(), p.num_nodes());
                let options = MigrateOptions {
                    capacity_slack: c.slack,
                    max_sweeps: c.sweeps,
                    migration_price_per_byte: c.price,
                    ..MigrateOptions::default()
                };
                let want = reference::improve_in_place(&p, &start, &options);
                let got = improve_in_place(&p, &start, &options);
                prop_assert_eq!(&got.placement, &want.placement);
                prop_assert_eq!(got.moves, want.moves);
                prop_assert_eq!(got.migrated_bytes, want.migrated_bytes);
                prop_assert_eq!(got.comm_cost.to_bits(), want.comm_cost.to_bits());
                let tree = DomainTree::flat(p.num_nodes());
                let replica = ReplicaPlacement::from_primary(start);
                let got = improve_replicas_in_place(&p, &tree, &replica, &options);
                prop_assert_eq!(got.replica.primary(), &want.placement);
                prop_assert_eq!(got.moves, want.moves);
                prop_assert_eq!(got.migrated_bytes, want.migrated_bytes);
                prop_assert_eq!(
                    got.comm_cost.to_bits(),
                    p.eval_cost(&want.placement, 1).to_bits()
                );
                moved.set(moved.get() + u32::from(want.moves > 0));
                resource_moved
                    .set(resource_moved.get() + u32::from(want.moves > 0 && c.resource.is_some()));
                Ok(())
            });
        assert!(
            resource_moved.get() > 0 && moved.get() > resource_moved.get(),
            "the generator must reach moving cases with ({}) and without a resource ({})",
            resource_moved.get(),
            moved.get() - resource_moved.get()
        );
    }

    /// A random instance for the `reconcile` and schedule differentials.
    #[derive(Debug, Clone)]
    struct ReconcileCase {
        base: PolishCase,
        desired: Vec<u32>,
        budget: u64,
        nonpositive: bool,
        /// The schedule's per-slice budgets.
        slices: Vec<u64>,
    }

    impl Shrink for ReconcileCase {
        fn shrink(&self) -> Vec<Self> {
            (self.base.shrink().into_iter())
                .map(|base| ReconcileCase {
                    base,
                    ..self.clone()
                })
                .collect()
        }
    }

    /// [`polish_case`]'s instances with a desired placement that mostly
    /// sends each correlated group to one node (a target copied along
    /// four edges in five, one object in ten redrawn), from the start
    /// placement or from scratch. Budgets are 0, a part of the diff or
    /// `u64::MAX`, for `reconcile` and for each of 1–6 schedule slices.
    fn reconcile_case(rng: &mut StdRng) -> ReconcileCase {
        let base = polish_case(rng);
        let n = base.capacities.len() as u32;
        let mut desired: Vec<u32> = match rng.random_bool(0.25) {
            true => base.start.clone(),
            false => (base.start.iter())
                .map(|_| rng.random_range(0..n))
                .collect(),
        };
        for &(a, b, _, _) in &base.edges {
            if rng.random_bool(0.8) {
                desired[b] = desired[a];
            }
        }
        for d in &mut desired {
            if rng.random_bool(0.1) {
                *d = rng.random_range(0..n);
            }
        }
        let diff: u64 = (base.sizes.iter().zip(&base.start).zip(&desired))
            .filter(|((_, s), d)| s != d)
            .map(|((&size, _), _)| size)
            .sum();
        let budget = |rng: &mut StdRng| match rng.random_range(0..5) {
            0 => 0,
            1 => rng.random_range(1..=40),
            2 | 3 => rng.random_range(0..=diff),
            _ => u64::MAX,
        };
        ReconcileCase {
            budget: budget(rng),
            slices: (0..rng.random_range(1..=6)).map(|_| budget(rng)).collect(),
            nonpositive: rng.random_bool(0.5),
            desired,
            base,
        }
    }

    fn reconcile_options(c: &ReconcileCase) -> MigrateOptions {
        MigrateOptions {
            capacity_slack: c.base.slack,
            max_sweeps: c.base.sweeps,
            apply_nonpositive_gains: c.nonpositive,
            ..MigrateOptions::default()
        }
    }

    /// `reconcile` makes the old implementation's every move: same
    /// placement, moves, bytes and cost bits, across secondary resources,
    /// slacks, budgets and both gain rules.
    #[test]
    fn reconcile_matches_reference_move_for_move() {
        let (moved, partial) = (Cell::new(0u32), Cell::new(0u32));
        Checker::new("reconcile_matches_reference_move_for_move")
            .cases(1200)
            .run(reconcile_case, |c| {
                let p = polish_problem(&c.base);
                let start = Placement::new(c.base.start.clone(), p.num_nodes());
                let desired = Placement::new(c.desired.clone(), p.num_nodes());
                let options = reconcile_options(c);
                let want = reference::reconcile(&p, &start, &desired, c.budget, &options);
                let got = reconcile(&p, &start, &desired, c.budget, &options);
                prop_assert_eq!(&got.placement, &want.placement);
                prop_assert_eq!(got.moves, want.moves);
                prop_assert_eq!(got.migrated_bytes, want.migrated_bytes);
                prop_assert_eq!(got.comm_cost.to_bits(), want.comm_cost.to_bits());
                moved.set(moved.get() + u32::from(want.moves > 0));
                partial.set(partial.get() + u32::from(want.moves > 0 && want.placement != desired));
                Ok(())
            });
        assert!(
            partial.get() > 0 && moved.get() > partial.get(),
            "the generator must reach partial ({}) and complete ({}) moving cases",
            partial.get(),
            moved.get() - partial.get()
        );
    }

    /// `MigrationSchedule::advance`, slice by slice, returns the old
    /// implementation's every slice and placement.
    #[test]
    fn schedule_matches_reference_slice_for_slice() {
        let (fallback, stalled) = (Cell::new(0u32), Cell::new(0u32));
        Checker::new("schedule_matches_reference_slice_for_slice")
            .cases(1200)
            .run(reconcile_case, |c| {
                let p = polish_problem(&c.base);
                let start = Placement::new(c.base.start.clone(), p.num_nodes());
                let desired = Placement::new(c.desired.clone(), p.num_nodes());
                let options = reconcile_options(c);
                let mut schedule = MigrationSchedule::new(desired.clone(), options);
                let forced = MigrateOptions {
                    apply_nonpositive_gains: true,
                    ..options
                };
                let (mut got_at, mut want_at) = (start.clone(), start);
                for &budget in &c.slices {
                    let want = reference::advance(&p, &desired, &forced, &mut want_at, budget);
                    let got = schedule.advance(&p, &mut got_at, budget);
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(&got_at, &want_at);
                    let grouped = reconcile(&p, &got_at, &desired, budget, &forced);
                    fallback.set(fallback.get() + u32::from(want.moves > 0 && grouped.moves == 0));
                    stalled.set(stalled.get() + u32::from(want.stalled));
                }
                Ok(())
            });
        assert!(
            fallback.get() > 0 && stalled.get() > 0,
            "the generator must reach per-object ({}) and stalled ({}) slices",
            fallback.get(),
            stalled.get()
        );
    }
}
