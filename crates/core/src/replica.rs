//! Replica-aware placements and hierarchical failure domains.
//!
//! The paper places exactly one copy per object; production systems place
//! `r` copies spread across failure domains so that losing a whole rack
//! (or zone) leaves every object readable. This module introduces the two
//! vocabulary types of that generalization and the deterministic
//! spreading rule that connects them:
//!
//! * [`DomainTree`] — a (up to two-level) tree over nodes: zones at the
//!   top, leaf domains below, nodes at the leaves. The **flat** tree puts
//!   every node in its own leaf domain, which makes every replica-aware
//!   code path degenerate to today's single-copy behaviour.
//! * [`ReplicaPlacement`] — `r` home nodes per object, stored as `r`
//!   structure-of-arrays columns ([`Placement`] vectors). Column 0 is the
//!   **primary** column; with `r = 1` it wraps today's assignment vector
//!   bit-for-bit, so every existing consumer keeps its exact behaviour.
//!
//! # Spread invariant
//!
//! No two replicas of the same object may share a **leaf domain**
//! ([`ReplicaPlacement::spread_valid`]). Under the flat tree this merely
//! says replicas land on distinct nodes. [`spread_copies`] establishes
//! the invariant and [`crate::repair::repair_replica_spread`] restores it
//! after domain loss.
//!
//! # Deterministic tie-breaks (contract)
//!
//! Every choice in this module is a total order so results are
//! reproducible across threads and shards:
//!
//! * **Copy targets** (spreading + repair): candidate nodes are ranked by
//!   `(zone already used by this object, the copy would not fit under
//!   capacity·slack in every dimension, storage load, node id)` and the
//!   minimum wins — prefer fresh zones, then nodes where the copy fits
//!   (the fit test every mover uses), then lighter nodes, then the lowest
//!   node id.
//! * **Edge split test** ([`ReplicaPlacement::split`]): an edge is split
//!   iff *no* replica pair of its endpoints colocates — the
//!   min-over-replica-choices read cost of the subset-assignment view.
//!   At `r = 1` this is exactly `node_of(a) != node_of(b)`.
//! * **Replica scans** are always in ascending replica-index order
//!   (primary first), so "first colocated replica" is well defined.

use crate::placement::Placement;
use crate::problem::{CcaProblem, ObjectId, ProblemError};
use crate::resources::Loads;

// ---------------------------------------------------------------------------
// DomainTree
// ---------------------------------------------------------------------------

/// A hierarchical failure-domain tree over nodes: top-level **zones**
/// partition the **leaf domains**, leaf domains partition the nodes.
///
/// The spread invariant is stated on leaf domains; zones only bias the
/// spreading heuristic (prefer a zone that holds no copy yet). The flat
/// tree (`DomainTree::flat`) is the identity structure: every node is its
/// own leaf domain and its own zone, which reduces every replica-aware
/// rule to the single-copy behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainTree {
    /// Leaf domain of each node.
    leaf_of: Vec<u32>,
    /// Zone of each leaf domain.
    zone_of: Vec<u32>,
    /// Nodes of each leaf domain, ascending node ids.
    members: Vec<Vec<usize>>,
}

impl DomainTree {
    /// The flat tree: every node is its own leaf domain (and zone).
    /// Replica-aware code under this tree behaves exactly like the
    /// single-copy code.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0`.
    #[must_use]
    pub fn flat(num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "domain tree needs at least one node");
        DomainTree {
            leaf_of: (0..num_nodes as u32).collect(),
            zone_of: (0..num_nodes as u32).collect(),
            members: (0..num_nodes).map(|n| vec![n]).collect(),
        }
    }

    /// `domains` contiguous leaf domains over `num_nodes` nodes (node `n`
    /// lands in leaf `n * domains / num_nodes`, so domain sizes differ by
    /// at most one). Each leaf is its own zone.
    ///
    /// # Errors
    ///
    /// Rejects `domains == 0` and `domains > num_nodes` as
    /// [`ProblemError::InvalidNumber`].
    pub fn contiguous(num_nodes: usize, domains: usize) -> Result<Self, ProblemError> {
        if num_nodes == 0 || domains == 0 || domains > num_nodes {
            return Err(ProblemError::InvalidNumber(format!(
                "domain count {domains} must be in 1..={num_nodes} (node count)"
            )));
        }
        let leaf_of: Vec<u32> = (0..num_nodes)
            .map(|n| (n * domains / num_nodes) as u32)
            .collect();
        Ok(Self::from_leaves(leaf_of, (0..domains as u32).collect()))
    }

    /// A two-level tree: `zones * leaves_per_zone` contiguous leaf
    /// domains, grouped `leaves_per_zone` at a time into zones.
    ///
    /// # Errors
    ///
    /// Rejects zero factors and more leaves than nodes as
    /// [`ProblemError::InvalidNumber`].
    pub fn zoned(
        num_nodes: usize,
        zones: usize,
        leaves_per_zone: usize,
    ) -> Result<Self, ProblemError> {
        let leaves = zones.checked_mul(leaves_per_zone).unwrap_or(0);
        if zones == 0 || leaves_per_zone == 0 || leaves == 0 || leaves > num_nodes {
            return Err(ProblemError::InvalidNumber(format!(
                "domain spec {zones}x{leaves_per_zone} needs 1..={num_nodes} leaf domains"
            )));
        }
        let leaf_of: Vec<u32> = (0..num_nodes)
            .map(|n| (n * leaves / num_nodes) as u32)
            .collect();
        let zone_of: Vec<u32> = (0..leaves as u32)
            .map(|l| l / leaves_per_zone as u32)
            .collect();
        Ok(Self::from_leaves(leaf_of, zone_of))
    }

    /// Parses a CLI domain spec: `flat`, a leaf-domain count `D`, or a
    /// two-level `ZxL` (zones × leaves per zone). Nodes are assigned to
    /// leaves contiguously.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::InvalidNumber`] for malformed specs and
    /// out-of-range counts.
    pub fn parse(spec: &str, num_nodes: usize) -> Result<Self, ProblemError> {
        let spec = spec.trim();
        if spec.eq_ignore_ascii_case("flat") {
            if num_nodes == 0 {
                return Err(ProblemError::InvalidNumber(
                    "domain tree needs at least one node".into(),
                ));
            }
            return Ok(Self::flat(num_nodes));
        }
        if let Some((z, l)) = spec.split_once(['x', 'X']) {
            let zones: usize = z.parse().map_err(|_| {
                ProblemError::InvalidNumber(format!("invalid domain spec {spec:?}"))
            })?;
            let leaves: usize = l.parse().map_err(|_| {
                ProblemError::InvalidNumber(format!("invalid domain spec {spec:?}"))
            })?;
            return Self::zoned(num_nodes, zones, leaves);
        }
        let domains: usize = spec
            .parse()
            .map_err(|_| ProblemError::InvalidNumber(format!("invalid domain spec {spec:?}")))?;
        Self::contiguous(num_nodes, domains)
    }

    fn from_leaves(leaf_of: Vec<u32>, zone_of: Vec<u32>) -> Self {
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); zone_of.len()];
        for (node, &leaf) in leaf_of.iter().enumerate() {
            members[leaf as usize].push(node);
        }
        DomainTree {
            leaf_of,
            zone_of,
            members,
        }
    }

    /// Number of nodes covered by the tree.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.leaf_of.len()
    }

    /// Number of leaf domains.
    #[must_use]
    pub fn num_domains(&self) -> usize {
        self.members.len()
    }

    /// Number of top-level zones.
    #[must_use]
    pub fn num_zones(&self) -> usize {
        self.zone_of
            .iter()
            .map(|&z| z as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// Leaf domain of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn domain_of(&self, node: usize) -> usize {
        self.leaf_of[node] as usize
    }

    /// Zone of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn zone_of(&self, node: usize) -> usize {
        self.zone_of[self.leaf_of[node] as usize] as usize
    }

    /// Nodes of leaf domain `d`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    #[must_use]
    pub fn nodes_in(&self, d: usize) -> &[usize] {
        &self.members[d]
    }

    /// `true` when every node is its own leaf domain (the single-copy
    /// degenerate structure).
    #[must_use]
    pub fn is_flat(&self) -> bool {
        self.members.iter().all(|m| m.len() == 1)
    }
}

// ---------------------------------------------------------------------------
// ReplicaPlacement
// ---------------------------------------------------------------------------

/// An `r`-way replicated placement: `r` home nodes per object, stored as
/// `r` structure-of-arrays columns. Column 0 is the primary column; with
/// `r = 1` it wraps today's [`Placement`] bit-for-bit, and every
/// replica-aware consumer degenerates to the single-copy behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaPlacement {
    columns: Vec<Placement>,
}

impl ReplicaPlacement {
    /// Wraps a single-copy placement as the `r = 1` replica placement.
    /// The primary column *is* the given assignment vector — no copy, no
    /// transformation — which is what makes the r=1 equivalence
    /// guarantee structural rather than numerical.
    #[must_use]
    pub fn from_primary(primary: Placement) -> Self {
        ReplicaPlacement {
            columns: vec![primary],
        }
    }

    /// Wraps explicit replica columns (column 0 = primary).
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty or the columns disagree on object or
    /// node count.
    #[must_use]
    pub fn from_columns(columns: Vec<Placement>) -> Self {
        assert!(!columns.is_empty(), "replica placement needs >= 1 column");
        let objects = columns[0].num_objects();
        let nodes = columns[0].num_nodes();
        assert!(
            columns
                .iter()
                .all(|c| c.num_objects() == objects && c.num_nodes() == nodes),
            "replica columns disagree on dimensions"
        );
        ReplicaPlacement { columns }
    }

    /// Copies per object (`r >= 1`).
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.columns.len()
    }

    /// Number of placed objects.
    #[must_use]
    pub fn num_objects(&self) -> usize {
        self.columns[0].num_objects()
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.columns[0].num_nodes()
    }

    /// The primary column (replica 0).
    #[must_use]
    pub fn primary(&self) -> &Placement {
        &self.columns[0]
    }

    /// Unwraps the primary column without a copy, dropping the others:
    /// the inverse of [`ReplicaPlacement::from_primary`] at `r = 1`.
    #[must_use]
    pub fn into_primary(self) -> Placement {
        self.columns
            .into_iter()
            .next()
            .expect("a replica placement has at least one column")
    }

    /// Replica column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= r`.
    #[must_use]
    pub fn column(&self, j: usize) -> &Placement {
        &self.columns[j]
    }

    /// All columns, primary first.
    #[must_use]
    pub fn columns(&self) -> &[Placement] {
        &self.columns
    }

    /// Node of replica `j` of object `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[must_use]
    pub fn node_of(&self, i: ObjectId, j: usize) -> usize {
        self.columns[j].node_of(i)
    }

    /// Home nodes of object `i`, ascending replica index (primary first).
    pub fn nodes_of(&self, i: ObjectId) -> impl Iterator<Item = usize> + '_ {
        self.columns.iter().map(move |c| c.node_of(i))
    }

    /// `true` when some replica of object `i` lives on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn colocated(&self, i: ObjectId, node: usize) -> bool {
        self.columns.iter().any(|c| c.node_of(i) == node)
    }

    /// Min-over-replica-choices split test: the pair `(a, b)` pays its
    /// communication cost iff **no** replica pair colocates. At `r = 1`
    /// this is exactly `node_of(a) != node_of(b)`.
    #[must_use]
    pub fn split(&self, a: ObjectId, b: ObjectId) -> bool {
        !self.nodes_of(a).any(|n| self.colocated(b, n))
    }

    /// Reassigns replica `j` of object `i` to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `i`, `j`, or `node` is out of range.
    pub fn assign(&mut self, i: ObjectId, j: usize, node: usize) {
        self.columns[j].assign(i, node);
    }

    /// Per-node total stored bytes counting **every copy** (the primary
    /// column alone is [`Placement::loads`]).
    ///
    /// # Panics
    ///
    /// Panics if the placement and problem disagree on object count.
    #[must_use]
    pub fn replica_loads(&self, problem: &CcaProblem) -> Vec<u64> {
        let mut loads = vec![0u64; self.num_nodes()];
        for column in &self.columns {
            for (node, load) in column.loads(problem).into_iter().enumerate() {
                loads[node] += load;
            }
        }
        loads
    }

    /// The spread invariant: no two replicas of any object share a leaf
    /// domain of `tree`.
    ///
    /// # Panics
    ///
    /// Panics if `tree` covers a different node count.
    #[must_use]
    pub fn spread_valid(&self, tree: &DomainTree) -> bool {
        self.violations(tree).next().is_none()
    }

    /// Objects violating the spread invariant (ascending ids). Empty iff
    /// [`ReplicaPlacement::spread_valid`].
    ///
    /// # Panics
    ///
    /// Panics if `tree` covers a different node count.
    #[must_use]
    pub fn spread_violations(&self, tree: &DomainTree) -> Vec<ObjectId> {
        self.violations(tree).collect()
    }

    /// The one scan of the copy pairs: the objects two of whose copies
    /// share a leaf domain, ascending.
    fn violations<'a>(&'a self, tree: &'a DomainTree) -> impl Iterator<Item = ObjectId> + 'a {
        assert_eq!(
            tree.num_nodes(),
            self.num_nodes(),
            "domain tree and placement disagree on node count"
        );
        let r = self.replicas();
        (0..self.num_objects() as u32)
            .map(ObjectId)
            .filter(move |&i| {
                (0..r).any(|a| {
                    let da = tree.domain_of(self.node_of(i, a));
                    (a + 1..r).any(|b| tree.domain_of(self.node_of(i, b)) == da)
                })
            })
    }
}

// ---------------------------------------------------------------------------
// Copy spreading
// ---------------------------------------------------------------------------

/// Validates an `(replicas, tree)` spec against a problem: at least one
/// copy, and no more copies than leaf domains (otherwise the spread
/// invariant is unsatisfiable).
///
/// # Errors
///
/// [`ProblemError::InvalidNumber`] for `replicas == 0`;
/// [`ProblemError::ReplicaSpread`] for `replicas > tree.num_domains()`.
pub fn validate_replica_spec(replicas: usize, tree: &DomainTree) -> Result<(), ProblemError> {
    if replicas == 0 {
        return Err(ProblemError::InvalidNumber(
            "replica count must be at least 1".into(),
        ));
    }
    if replicas > tree.num_domains() {
        return Err(ProblemError::ReplicaSpread {
            replicas,
            domains: tree.num_domains(),
        });
    }
    Ok(())
}

/// The one copy-placement pass of spreading and of the dead-copy
/// re-spread, and so the copy rule. Objects are visited in ascending id,
/// and each copy `j` on a node for which `homeless(j, node)` holds, in
/// ascending `j`, moves to the `alive` node outside the leaf domains of
/// the object's other copies (those that stay and those placed before it)
/// that ranks lowest by `(zone already used, copy does not fit, storage
/// load, node id)`, "fits" being the ledger's fit test in every
/// dimension. When every alive leaf is taken, it moves to the alive node
/// with the lightest storage load, the lowest id among equals. Each
/// placed copy is added to `loads`, which reads no node a copy leaves.
/// Returns `(copies placed, bytes placed)`.
pub(crate) fn place_copies(
    problem: &CcaProblem,
    tree: &DomainTree,
    rp: &mut ReplicaPlacement,
    loads: &mut Loads,
    alive: impl Fn(usize) -> bool,
    homeless: impl Fn(usize, usize) -> bool,
) -> (usize, u64) {
    let r = rp.replicas();
    let alive = &alive;
    let nodes = || (0..tree.num_nodes()).filter(move |&k| alive(k));
    let (mut used_leaves, mut used_zones) = (Vec::with_capacity(r), Vec::with_capacity(r));
    let (mut moves, mut bytes) = (0usize, 0u64);
    for i in problem.objects() {
        used_leaves.clear();
        used_zones.clear();
        for (j, node) in rp.nodes_of(i).enumerate() {
            if !homeless(j, node) {
                used_leaves.push(tree.domain_of(node));
                used_zones.push(tree.zone_of(node));
            }
        }
        for j in 0..r {
            if !homeless(j, rp.node_of(i, j)) {
                continue;
            }
            let target = (nodes())
                .filter(|&k| !used_leaves.contains(&tree.domain_of(k)))
                .min_by_key(|&k| {
                    let zone_used = used_zones.contains(&tree.zone_of(k));
                    (zone_used, !loads.fits(k, i), loads.storage(k))
                })
                .or_else(|| nodes().min_by_key(|&k| loads.storage(k)));
            if let Some(target) = target {
                loads.add(i, target);
                rp.assign(i, j, target);
                used_leaves.push(tree.domain_of(target));
                used_zones.push(tree.zone_of(target));
                moves += 1;
                bytes += problem.size(i);
            }
        }
    }
    (moves, bytes)
}

/// Spreads `replicas` copies of every object across the leaf domains of
/// `tree`, keeping `primary` as column 0 untouched. Copies are placed
/// object-by-object in ascending id order, each copy by the deterministic
/// copy rule (fresh zone first, then a node where the copy fits in every
/// dimension, then lightest storage load, then lowest node id) — the
/// round-robin-across-domains behaviour of the greedy/hash rungs falls
/// out of the load ranking.
///
/// With `replicas = 1` this returns `primary` wrapped unchanged.
///
/// # Errors
///
/// Propagates [`validate_replica_spec`] errors. Capacity is a soft
/// preference (`slack`-scaled): the spread invariant always holds for a
/// valid spec, overloads show in
/// [`ReplicaPlacement::replica_loads`].
pub fn spread_copies(
    problem: &CcaProblem,
    tree: &DomainTree,
    primary: Placement,
    replicas: usize,
    slack: f64,
) -> Result<ReplicaPlacement, ProblemError> {
    validate_replica_spec(replicas, tree)?;
    assert_eq!(
        tree.num_nodes(),
        primary.num_nodes(),
        "domain tree and placement disagree on node count"
    );
    if replicas == 1 {
        return Ok(ReplicaPlacement::from_primary(primary));
    }
    let mut loads = Loads::new(problem, std::slice::from_ref(&primary), slack);
    let mut rp = ReplicaPlacement::from_columns(vec![primary; replicas]);
    place_copies(problem, tree, &mut rp, &mut loads, |_| true, |j, _| j > 0);
    Ok(rp)
}

/// The copy-target rule as it was before it took the capacity ledger's
/// fit test: a copy "fits" when its storage alone stays within
/// `capacity · slack`, and loads are `u64` storage bytes. Kept verbatim
/// (spreading, and the dead-copy re-spread of
/// [`crate::repair::repair_replica_spread`]) as the differential oracle
/// the ledger rule must match on storage-only problems whose
/// `capacity · slack` is an integer.
#[cfg(test)]
pub(crate) mod reference {
    use super::{DomainTree, ReplicaPlacement};
    use crate::placement::Placement;
    use crate::problem::{CcaProblem, ObjectId};

    #[allow(clippy::too_many_arguments)]
    fn pick_copy_node(
        problem: &CcaProblem,
        tree: &DomainTree,
        loads: &[u64],
        alive: impl Fn(usize) -> bool,
        used_leaves: &[usize],
        used_zones: &[usize],
        size: u64,
        slack: f64,
    ) -> Option<usize> {
        let mut best: Option<(bool, bool, u64, usize)> = None;
        let mut best_node = None;
        for node in 0..tree.num_nodes() {
            if !alive(node) || used_leaves.contains(&tree.domain_of(node)) {
                continue;
            }
            let projected = loads[node] + size;
            let key = (
                used_zones.contains(&tree.zone_of(node)),
                projected as f64 > problem.capacity(node) as f64 * slack,
                projected,
                node,
            );
            if best.is_none_or(|b| key < b) {
                best = Some(key);
                best_node = Some(node);
            }
        }
        best_node
    }

    /// `spread_copies` for `replicas >= 2`.
    pub(crate) fn spread_copies(
        problem: &CcaProblem,
        tree: &DomainTree,
        primary: Placement,
        replicas: usize,
        slack: f64,
    ) -> ReplicaPlacement {
        let num_objects = primary.num_objects();
        let mut loads = primary.loads(problem);
        let mut columns: Vec<Vec<u32>> = vec![vec![0u32; num_objects]; replicas - 1];
        for idx in 0..num_objects {
            let i = ObjectId(idx as u32);
            let size = problem.size(i);
            let mut used_leaves = vec![tree.domain_of(primary.node_of(i))];
            let mut used_zones = vec![tree.zone_of(primary.node_of(i))];
            for column in columns.iter_mut() {
                let node = pick_copy_node(
                    problem,
                    tree,
                    &loads,
                    |_| true,
                    &used_leaves,
                    &used_zones,
                    size,
                    slack,
                )
                .expect("validate_replica_spec guarantees a free leaf domain");
                column[idx] = node as u32;
                loads[node] += size;
                used_leaves.push(tree.domain_of(node));
                used_zones.push(tree.zone_of(node));
            }
        }
        let num_nodes = primary.num_nodes();
        let mut cols = Vec::with_capacity(replicas);
        cols.push(primary);
        cols.extend(
            columns
                .into_iter()
                .map(|assignment| Placement::new(assignment, num_nodes)),
        );
        ReplicaPlacement::from_columns(cols)
    }

    /// The dead-copy re-spread; returns `(moves, migrated_bytes)`.
    pub(crate) fn respread(
        problem: &CcaProblem,
        tree: &DomainTree,
        rp: &mut ReplicaPlacement,
        dead: &[bool],
        slack: f64,
    ) -> (usize, u64) {
        let mut loads = rp.replica_loads(problem);
        for (node, &d) in dead.iter().enumerate() {
            if d {
                loads[node] = 0;
            }
        }
        let r = rp.replicas();
        let mut moves = 0usize;
        let mut bytes = 0u64;
        for idx in 0..rp.num_objects() {
            let i = ObjectId(idx as u32);
            let size = problem.size(i);
            let mut used_leaves: Vec<usize> = Vec::with_capacity(r);
            let mut used_zones: Vec<usize> = Vec::with_capacity(r);
            for j in 0..r {
                let n = rp.node_of(i, j);
                if !dead[n] {
                    used_leaves.push(tree.domain_of(n));
                    used_zones.push(tree.zone_of(n));
                }
            }
            for j in 0..r {
                let n = rp.node_of(i, j);
                if !dead[n] {
                    continue;
                }
                let target = pick_copy_node(
                    problem,
                    tree,
                    &loads,
                    |node| !dead[node],
                    &used_leaves,
                    &used_zones,
                    size,
                    slack,
                )
                .or_else(|| {
                    (0..tree.num_nodes())
                        .filter(|&node| !dead[node])
                        .min_by_key(|&node| (loads[node], node))
                });
                if let Some(target) = target {
                    rp.assign(i, j, target);
                    loads[target] += size;
                    used_leaves.push(tree.domain_of(target));
                    used_zones.push(tree.zone_of(target));
                    moves += 1;
                    bytes += size;
                }
            }
        }
        (moves, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::repair_replica_spread;
    use crate::resources::Resource;
    use cca_check::{prop_assert_eq, Checker, Rng, Shrink, StdRng};
    use std::cell::Cell;

    fn problem(nodes: usize) -> CcaProblem {
        let mut b = CcaProblem::builder();
        let ids: Vec<ObjectId> = (0..6).map(|i| b.add_object(format!("o{i}"), 10)).collect();
        b.add_pair(ids[0], ids[1], 0.5, 10.0).unwrap();
        b.add_pair(ids[2], ids[3], 0.4, 10.0).unwrap();
        b.add_pair(ids[4], ids[5], 0.3, 10.0).unwrap();
        b.uniform_capacities(nodes, 100).build().unwrap()
    }

    #[test]
    fn flat_tree_is_identity() {
        let t = DomainTree::flat(4);
        assert!(t.is_flat());
        assert_eq!(t.num_domains(), 4);
        assert_eq!(t.num_zones(), 4);
        assert_eq!(t.domain_of(3), 3);
        assert_eq!(t.nodes_in(2), &[2]);
    }

    #[test]
    fn contiguous_and_zoned_partition_nodes() {
        let t = DomainTree::contiguous(6, 3).unwrap();
        assert_eq!(t.nodes_in(0), &[0, 1]);
        assert_eq!(t.nodes_in(2), &[4, 5]);
        let z = DomainTree::zoned(8, 2, 2).unwrap();
        assert_eq!(z.num_domains(), 4);
        assert_eq!(z.zone_of(0), 0);
        assert_eq!(z.zone_of(7), 1);
        assert!(DomainTree::contiguous(4, 0).is_err());
        assert!(DomainTree::contiguous(4, 5).is_err());
    }

    #[test]
    fn parse_specs() {
        assert!(DomainTree::parse("flat", 5).unwrap().is_flat());
        assert_eq!(DomainTree::parse("3", 6).unwrap().num_domains(), 3);
        assert_eq!(DomainTree::parse("2x2", 8).unwrap().num_zones(), 2);
        assert!(DomainTree::parse("zap", 4).is_err());
        assert!(DomainTree::parse("0", 4).is_err());
    }

    #[test]
    fn r1_wraps_bit_for_bit() {
        let p = problem(4);
        let primary = Placement::new(vec![0, 1, 2, 3, 0, 1], 4);
        let tree = DomainTree::flat(4);
        let rp = spread_copies(&p, &tree, primary.clone(), 1, 1.0).unwrap();
        assert_eq!(rp.primary().as_slice(), primary.as_slice());
        assert_eq!(rp.replicas(), 1);
        // Split test degenerates to node inequality.
        for a in 0..6 {
            for b in 0..6 {
                let (a, b) = (ObjectId(a), ObjectId(b));
                assert_eq!(rp.split(a, b), primary.node_of(a) != primary.node_of(b));
            }
        }
    }

    #[test]
    fn spread_respects_leaf_domains() {
        let p = problem(6);
        let primary = Placement::new(vec![0, 0, 2, 2, 4, 4], 6);
        let tree = DomainTree::contiguous(6, 3).unwrap();
        let rp = spread_copies(&p, &tree, primary, 2, 1.0).unwrap();
        assert!(rp.spread_valid(&tree));
        assert!(rp.spread_violations(&tree).is_empty());
        // r above the domain count is a typed error.
        let err = spread_copies(&p, &tree, Placement::new(vec![0; 6], 6), 4, 1.0).unwrap_err();
        assert!(matches!(
            err,
            ProblemError::ReplicaSpread {
                replicas: 4,
                domains: 3
            }
        ));
    }

    #[test]
    fn respread_after_domain_kill_restores_invariant() {
        let p = problem(6);
        let tree = DomainTree::contiguous(6, 3).unwrap();
        let primary = Placement::new(vec![0, 1, 2, 3, 4, 5], 6);
        let mut rp = spread_copies(&p, &tree, primary, 2, 1.0).unwrap();
        // Kill leaf domain 0 == nodes {0, 1}.
        let mut dead = [false; 6];
        for &n in tree.nodes_in(0) {
            dead[n] = true;
        }
        let out = crate::repair::repair_replica_spread(&p, &tree, &mut rp, tree.nodes_in(0), 1.0);
        assert!(out.moves > 0);
        assert_eq!(out.migrated_bytes, out.moves as u64 * 10);
        assert!(out.spread_valid);
        for i in 0..rp.num_objects() {
            for j in 0..rp.replicas() {
                assert!(!dead[rp.node_of(ObjectId(i as u32), j)]);
            }
        }
        assert!(rp.spread_valid(&tree));
    }

    #[test]
    fn split_is_min_over_replica_pairs() {
        let p = problem(4);
        let c0 = Placement::new(vec![0, 1, 0, 1, 0, 1], 4);
        let c1 = Placement::new(vec![2, 2, 3, 3, 2, 3], 4);
        let rp = ReplicaPlacement::from_columns(vec![c0, c1]);
        // Objects 0 and 1: replicas {0,2} vs {1,2} — share node 2.
        assert!(!rp.split(ObjectId(0), ObjectId(1)));
        // Objects 0 and 3: replicas {0,2} vs {1,3} — disjoint.
        assert!(rp.split(ObjectId(0), ObjectId(3)));
        let _ = p;
    }

    /// A random storage-only instance for the copy-rule differential.
    #[derive(Debug, Clone)]
    struct CopyCase {
        sizes: Vec<u64>,
        /// Storage capacities, multiples of 4 so that `capacity · slack`
        /// is an integer at every drawn slack.
        capacities: Vec<u64>,
        slack: f64,
        /// `None` is the flat tree, else `(zones, leaves per zone)`.
        tree: Option<(usize, usize)>,
        replicas: usize,
        primary: Vec<u32>,
        /// Nodes killed before the re-spread (at least one survives).
        dead: Vec<usize>,
    }

    impl Shrink for CopyCase {}

    /// 1–60 objects of 1–40 bytes on 2–10 nodes with 30–250% of an even
    /// share of the replicated bytes, a flat, contiguous or zoned tree,
    /// 2–3 copies and up to half the nodes dead.
    fn copy_case(rng: &mut StdRng) -> CopyCase {
        let t = rng.random_range(1usize..=60);
        let n = rng.random_range(2usize..=10);
        let sizes: Vec<u64> = (0..t).map(|_| rng.random_range(1u64..=40)).collect();
        let tree = match rng.random_range(0..3) {
            0 => None,
            1 => Some((rng.random_range(2..=n), 1)),
            _ => {
                let zones = rng.random_range(1..=n / 2);
                Some((zones, rng.random_range(1..=n / zones).max(2).min(n / zones)))
            }
        };
        let domains = tree.map_or(n, |(z, l)| z * l);
        let replicas = rng.random_range(2..=3.min(domains).max(2));
        let total: u64 = sizes.iter().sum::<u64>() * replicas as u64;
        let capacities = (0..n)
            .map(|_| 4 * (total * rng.random_range(30u64..=250) / (400 * n as u64)).max(1))
            .collect();
        let primary = (0..t).map(|_| rng.random_range(0..n as u32)).collect();
        let mut dead: Vec<usize> = (0..n).filter(|_| rng.random_bool(0.25)).collect();
        dead.truncate(n / 2);
        CopyCase {
            sizes,
            capacities,
            slack: [1.0, 1.25, 1.5, 2.0, 3.0][rng.random_range(0..5)],
            tree,
            replicas,
            primary,
            dead,
        }
    }

    /// The ledger's copy rule makes every pick of the storage-only rule
    /// it replaced — in spreading and in the dead-copy re-spread — on
    /// storage-only problems whose `capacity · slack` is an integer.
    #[test]
    fn copy_rule_matches_the_storage_only_reference() {
        let (overflowed, moved) = (Cell::new(0u32), Cell::new(0u32));
        Checker::new("copy_rule_matches_the_storage_only_reference")
            .cases(600)
            .run(copy_case, |c| {
                let mut b = CcaProblem::builder();
                for (i, &size) in c.sizes.iter().enumerate() {
                    b.add_object(format!("o{i}"), size);
                }
                let p = b
                    .capacities(c.capacities.clone())
                    .build()
                    .expect("valid problem");
                let n = p.num_nodes();
                let tree = match c.tree {
                    None => DomainTree::flat(n),
                    Some((z, l)) => DomainTree::zoned(n, z, l).expect("valid tree"),
                };
                let primary = Placement::new(c.primary.clone(), n);
                let got = spread_copies(&p, &tree, primary.clone(), c.replicas, c.slack)
                    .expect("valid spec");
                let want = reference::spread_copies(&p, &tree, primary, c.replicas, c.slack);
                prop_assert_eq!(&got, &want);
                let loads = want.replica_loads(&p);
                overflowed.set(
                    overflowed.get()
                        + u32::from(
                            (0..n).any(|k| loads[k] as f64 > p.capacity(k) as f64 * c.slack),
                        ),
                );

                let capacities = (0..n)
                    .map(|k| {
                        if c.dead.contains(&k) {
                            0
                        } else {
                            p.capacity(k)
                        }
                    })
                    .collect();
                let degraded = p.with_capacities(capacities).unwrap();
                let mut got = want.clone();
                let outcome = repair_replica_spread(&degraded, &tree, &mut got, &c.dead, c.slack);
                let mut expected = want;
                let dead: Vec<bool> = (0..n).map(|k| c.dead.contains(&k)).collect();
                let (moves, bytes) =
                    reference::respread(&degraded, &tree, &mut expected, &dead, c.slack);
                prop_assert_eq!(&got, &expected);
                prop_assert_eq!((outcome.moves, outcome.migrated_bytes), (moves, bytes));
                prop_assert_eq!(outcome.spread_valid, expected.spread_valid(&tree));
                moved.set(moved.get() + u32::from(moves > 0));
                Ok(())
            });
        assert!(
            overflowed.get() > 0 && moved.get() > 0,
            "the generator must reach overflowing spreads ({}) and re-spreads ({})",
            overflowed.get(),
            moved.get()
        );
    }

    /// Two candidates for a copy, only one of which has room in a
    /// secondary resource: the copy goes there, where the storage-only
    /// rule took the lighter node.
    #[test]
    fn a_copy_prefers_the_node_where_it_fits_every_dimension() {
        let mut b = CcaProblem::builder();
        let o0 = b.add_object("o0", 10);
        let o1 = b.add_object("o1", 10);
        // Bandwidth: o0 needs 5; node 1 has room for 4, node 2 for 10.
        b.add_resource(Resource::new("bandwidth", vec![5, 0], vec![10, 4, 10]));
        let p = b.uniform_capacities(3, 100).build().unwrap();
        let tree = DomainTree::flat(3);
        // o1's primary makes node 2 the heavier candidate for o0's copy.
        let primary = Placement::new(vec![0, 2], 3);
        let rp = spread_copies(&p, &tree, primary.clone(), 2, 1.0).unwrap();
        assert_eq!(rp.node_of(o0, 1), 2, "the copy must fit its bandwidth");
        let old = reference::spread_copies(&p, &tree, primary, 2, 1.0);
        assert_eq!(
            old.node_of(o0, 1),
            1,
            "storage alone picks the lighter node"
        );
        assert_eq!(rp.node_of(o1, 1), 1);

        // Re-spread after losing node 0: o0's only copy has the same two
        // candidates.
        let mut got = ReplicaPlacement::from_primary(Placement::new(vec![0, 2], 3));
        let mut old = got.clone();
        let degraded = p.with_capacities(vec![0, 100, 100]).unwrap();
        let out = repair_replica_spread(&degraded, &tree, &mut got, &[0], 1.0);
        assert_eq!(out.moves, 1);
        assert_eq!(got.node_of(o0, 0), 2, "the copy must fit its bandwidth");
        let _ = reference::respread(&degraded, &tree, &mut old, &[true, false, false], 1.0);
        assert_eq!(
            old.node_of(o0, 0),
            1,
            "storage alone picks the lighter node"
        );
    }
}
