//! Random hash-based placement — the paper's correlation-oblivious
//! baseline (§4.1).

use crate::placement::Placement;
use crate::problem::CcaProblem;
use cca_hash::hash_placement_many;

/// Places every object on the node given by the MD5 hash of its name
/// modulo the node count: "Random hash-based index placement or its
/// variants are commonly employed in practice today."
///
/// Capacities are ignored, as in the paper's baseline — uniform hashing
/// balances load in expectation.
///
/// ```
/// use cca_core::{random_hash_placement, CcaProblem};
/// let mut b = CcaProblem::builder();
/// b.add_object("car", 8);
/// b.add_object("dealer", 8);
/// let problem = b.uniform_capacities(4, 100).build().unwrap();
/// let placement = random_hash_placement(&problem);
/// // Deterministic: the same names always hash to the same nodes.
/// assert_eq!(placement, random_hash_placement(&problem));
/// ```
#[must_use]
pub fn random_hash_placement(problem: &CcaProblem) -> Placement {
    Placement::new(hashed_nodes(problem), problem.num_nodes())
}

/// The hash node of every object, in object order: every name hashed in
/// one batch.
pub(crate) fn hashed_nodes(problem: &CcaProblem) -> Vec<u32> {
    let names: Vec<&str> = problem.objects().map(|i| problem.name(i)).collect();
    hash_placement_many(&names, problem.num_nodes())
        .into_iter()
        .map(|k| k as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ObjectId;

    fn problem(objects: usize, nodes: usize) -> CcaProblem {
        let mut b = CcaProblem::builder();
        for i in 0..objects {
            b.add_object(format!("keyword{i}"), 8);
        }
        b.uniform_capacities(nodes, u64::MAX / nodes as u64)
            .build()
            .unwrap()
    }

    #[test]
    fn deterministic_and_in_range() {
        let p = problem(100, 7);
        let a = random_hash_placement(&p);
        let b = random_hash_placement(&p);
        assert_eq!(a, b);
        for i in p.objects() {
            assert!(a.node_of(i) < 7);
        }
    }

    #[test]
    fn roughly_uniform_across_nodes() {
        let p = problem(5000, 10);
        let pl = random_hash_placement(&p);
        let mut counts = [0usize; 10];
        for i in p.objects() {
            counts[pl.node_of(i)] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            assert!((350..650).contains(&c), "node {k} got {c} objects");
        }
    }

    #[test]
    fn placement_follows_name_not_id() {
        // Same names => same nodes, regardless of insertion order.
        let mut b1 = CcaProblem::builder();
        b1.add_object("alpha", 1);
        b1.add_object("beta", 1);
        let p1 = b1.uniform_capacities(5, 100).build().unwrap();

        let mut b2 = CcaProblem::builder();
        b2.add_object("beta", 1);
        b2.add_object("alpha", 1);
        let p2 = b2.uniform_capacities(5, 100).build().unwrap();

        let pl1 = random_hash_placement(&p1);
        let pl2 = random_hash_placement(&p2);
        assert_eq!(pl1.node_of(ObjectId(0)), pl2.node_of(ObjectId(1))); // alpha
        assert_eq!(pl1.node_of(ObjectId(1)), pl2.node_of(ObjectId(0))); // beta
    }
}
