//! Important-object partial optimization (paper §3.1, §4.2).
//!
//! "By limiting the scope of placement optimization on a small number of
//! important objects (dominant in access frequency and/or object size) and
//! using random placement for others, we may trade communication overhead
//! savings for less offline computation."

use crate::placement::Placement;
use crate::problem::{CcaProblem, ObjectId};
use crate::random::hashed_nodes;

/// The paper's §4.2 importance ranking over a CCA problem's objects:
///
/// 1. rank pairs by communication cost `r(i,j)·w(i,j)`, descending;
/// 2. take objects in order of first appearance in that pair ranking;
/// 3. objects involved in no pair rank last, ordered by size (descending)
///    then id — large never-paired objects matter for the capacity side of
///    the optimization even though they carry no communication.
#[must_use]
pub fn importance_ranking(problem: &CcaProblem) -> Vec<ObjectId> {
    // The (descending weight, ties (a, b)) pair order is precomputed on
    // the graph at build; the unique (a, b) tie-break makes it a total
    // order, so it equals the per-call sort this replaces.
    let graph = problem.graph();
    let mut seen = vec![false; problem.num_objects()];
    let mut ranking = Vec::with_capacity(problem.num_objects());
    for &e in graph.edges_by_weight() {
        let edge = graph.edge(e);
        for o in [edge.a, edge.b] {
            if !seen[o.index()] {
                seen[o.index()] = true;
                ranking.push(o);
            }
        }
    }
    let mut rest: Vec<ObjectId> = problem.objects().filter(|o| !seen[o.index()]).collect();
    rest.sort_unstable_by_key(|&o| (std::cmp::Reverse(problem.size(o)), o));
    ranking.extend(rest);
    ranking
}

/// Builds the subproblem for the `scope` objects.
///
/// When `deduct_hashed_load` is set, each node's capacity is reduced by the
/// expected load the hash-placed out-of-scope objects will add
/// (`out-of-scope total ÷ nodes`), so the optimizer leaves room for them;
/// capacities never go below zero.
///
/// # Panics
///
/// Panics if `scope` contains duplicates or unknown objects.
#[must_use]
pub fn scope_subproblem(
    problem: &CcaProblem,
    scope: &[ObjectId],
    deduct_hashed_load: bool,
) -> CcaProblem {
    let (mut sub, _) = problem.restrict_to(scope);
    if deduct_hashed_load {
        let scope_total: u64 = scope.iter().map(|&o| problem.size(o)).sum();
        let out_total = problem.total_size() - scope_total;
        let per_node = out_total / problem.num_nodes() as u64;
        let capacities = (0..problem.num_nodes())
            .map(|k| problem.capacity(k).saturating_sub(per_node))
            .collect();
        sub = sub
            .with_capacities(capacities)
            .expect("lowered capacities keep the problem's totals");
    }
    sub
}

/// Composes a full placement from a subproblem placement over `scope` plus
/// hash placement for everything else (paper §4.1: "The remaining keyword
/// indices will be placed using random hashing").
///
/// # Panics
///
/// Panics if the dimensions disagree.
#[must_use]
pub fn compose_with_hashed_rest(
    problem: &CcaProblem,
    scope: &[ObjectId],
    sub_placement: &Placement,
) -> Placement {
    assert_eq!(
        sub_placement.num_objects(),
        scope.len(),
        "subproblem placement must cover exactly the scope"
    );
    assert_eq!(
        sub_placement.num_nodes(),
        problem.num_nodes(),
        "node counts disagree"
    );
    let mut assignment = hashed_nodes(problem);
    for (sub_idx, &orig) in scope.iter().enumerate() {
        assignment[orig.index()] = sub_placement.node_of(ObjectId(sub_idx as u32)) as u32;
    }
    Placement::new(assignment, problem.num_nodes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_hash::hash_placement;

    fn problem() -> CcaProblem {
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..6)
            .map(|i| b.add_object(format!("w{i}"), 10 * (i as u64 + 1)))
            .collect();
        b.add_pair(o[0], o[1], 0.9, 10.0).unwrap(); // weight 9  (rank 1)
        b.add_pair(o[2], o[3], 0.5, 10.0).unwrap(); // weight 5  (rank 2)
        b.add_pair(o[1], o[2], 0.1, 10.0).unwrap(); // weight 1  (rank 3)
                                                    // objects 4, 5 never paired; sizes 50, 60.
        b.uniform_capacities(2, 300).build().unwrap()
    }

    #[test]
    fn ranking_follows_pair_weights_then_size() {
        let p = problem();
        let r = importance_ranking(&p);
        assert_eq!(
            r,
            vec![
                ObjectId(0),
                ObjectId(1),
                ObjectId(2),
                ObjectId(3),
                ObjectId(5), // size 60 before size 50
                ObjectId(4),
            ]
        );
    }

    #[test]
    fn subproblem_keeps_in_scope_pairs_only() {
        let p = problem();
        let scope = [ObjectId(0), ObjectId(1), ObjectId(2)];
        let sub = scope_subproblem(&p, &scope, false);
        assert_eq!(sub.num_objects(), 3);
        // Pairs (0,1) and (1,2) survive; (2,3) is dropped.
        assert_eq!(sub.pairs().len(), 2);
        assert_eq!(sub.capacity(0), 300);
    }

    #[test]
    fn deducting_hashed_load_shrinks_capacity() {
        let p = problem();
        let scope = [ObjectId(0), ObjectId(1), ObjectId(2)];
        // Out of scope: sizes 40 + 50 + 60 = 150 over 2 nodes -> 75 each.
        let sub = scope_subproblem(&p, &scope, true);
        assert_eq!(sub.capacity(0), 300 - 75);
        assert_eq!(sub.capacity(1), 300 - 75);
    }

    #[test]
    fn capacity_deduction_saturates_at_zero() {
        let p = problem().with_capacities(vec![10, 10]).unwrap();
        let scope = [ObjectId(0)];
        let sub = scope_subproblem(&p, &scope, true);
        assert_eq!(sub.capacity(0), 0);
    }

    #[test]
    fn composition_respects_scope_and_hashes_rest() {
        let p = problem();
        let scope = [ObjectId(0), ObjectId(1)];
        let sub = Placement::new(vec![1, 1], 2);
        let full = compose_with_hashed_rest(&p, &scope, &sub);
        assert_eq!(full.node_of(ObjectId(0)), 1);
        assert_eq!(full.node_of(ObjectId(1)), 1);
        // Out-of-scope objects get their hash node.
        for i in 2..6 {
            let expected = hash_placement(p.name(ObjectId(i)), 2);
            assert_eq!(full.node_of(ObjectId(i)), expected);
        }
    }

    #[test]
    fn full_scope_composition_is_pure_subplacement() {
        let p = problem();
        let scope: Vec<ObjectId> = p.objects().collect();
        let sub = Placement::new(vec![0, 1, 0, 1, 0, 1], 2);
        let full = compose_with_hashed_rest(&p, &scope, &sub);
        assert_eq!(full, sub);
    }
}
