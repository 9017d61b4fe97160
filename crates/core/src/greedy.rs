//! The greedy correlation-aware baseline (paper §4.1).
//!
//! "We examine keyword pairs in the descending order of their query
//! correlations and always place the most correlated pair on the same node
//! as long as the node capacity permits it."

use crate::placement::Placement;
use crate::problem::{CcaProblem, ObjectId};
use cca_hash::hash_placement;

/// Computes the greedy correlation-aware placement.
///
/// Pairs are visited in descending correlation (ties broken by pair id for
/// determinism):
///
/// * both endpoints unplaced → place both on the node with the most free
///   space that fits both (skip if none fits);
/// * one endpoint placed → co-locate the other if its node has room;
/// * both placed → nothing to do.
///
/// Objects left unplaced afterwards (never co-requested, or skipped for
/// capacity) are assigned by MD5 hash, falling back to the least-loaded
/// node with room, and finally to the overall least-loaded node, so the
/// function always returns a complete placement.
///
/// ```
/// use cca_core::{greedy_placement, CcaProblem};
/// # fn main() -> Result<(), cca_core::ProblemError> {
/// let mut b = CcaProblem::builder();
/// let a = b.add_object("a", 10);
/// let c = b.add_object("b", 10);
/// b.add_pair(a, c, 0.9, 5.0)?;
/// let problem = b.uniform_capacities(2, 20).build()?;
/// let placement = greedy_placement(&problem);
/// assert_eq!(placement.node_of(a), placement.node_of(c));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn greedy_placement(problem: &CcaProblem) -> Placement {
    let t = problem.num_objects();
    let n = problem.num_nodes();
    let mut assignment = vec![u32::MAX; t];
    // free[node][dim]: dimension 0 is storage, then secondary resources.
    let mut free: Vec<Vec<i128>> = (0..n)
        .map(|k| {
            let mut v = vec![problem.capacity(k) as i128];
            for res in problem.resources() {
                v.push(res.capacity(k) as i128);
            }
            v
        })
        .collect();
    let demands: Vec<Vec<i128>> = problem
        .objects()
        .map(|o| {
            problem
                .demand_vector(o)
                .into_iter()
                .map(|d| d as i128)
                .collect()
        })
        .collect();
    let fits = |free_k: &[i128], demand: &[i128]| free_k.iter().zip(demand).all(|(&f, &d)| f >= d);

    let place = |assignment: &mut Vec<u32>, free: &mut Vec<Vec<i128>>, i: ObjectId, k: usize| {
        assignment[i.index()] = k as u32;
        for (f, d) in free[k].iter_mut().zip(&demands[i.index()]) {
            *f -= d;
        }
    };

    // The graph precomputes the (descending correlation, ties (a, b))
    // visit order once at build; the unique (a, b) tie-break makes it a
    // total order, so it equals the per-call sort this replaces.
    for &e in problem.graph().edges_by_correlation() {
        let pair = &problem.pairs()[e.index()];
        let (a, b) = (pair.a, pair.b);
        let (pa, pb) = (assignment[a.index()], assignment[b.index()]);
        match (pa, pb) {
            (u32::MAX, u32::MAX) => {
                let need: Vec<i128> = demands[a.index()]
                    .iter()
                    .zip(&demands[b.index()])
                    .map(|(&x, &y)| x + y)
                    .collect();
                // Most free storage first, ties by node id.
                if let Some(k) = (0..n)
                    .filter(|&k| fits(&free[k], &need))
                    .max_by_key(|&k| (free[k][0], std::cmp::Reverse(k)))
                {
                    place(&mut assignment, &mut free, a, k);
                    place(&mut assignment, &mut free, b, k);
                }
            }
            (k, u32::MAX) if fits(&free[k as usize], &demands[b.index()]) => {
                place(&mut assignment, &mut free, b, k as usize);
            }
            (u32::MAX, k) if fits(&free[k as usize], &demands[a.index()]) => {
                place(&mut assignment, &mut free, a, k as usize);
            }
            _ => {}
        }
    }

    // Complete the placement for objects the greedy pass never placed.
    for i in problem.objects() {
        if assignment[i.index()] != u32::MAX {
            continue;
        }
        let demand = &demands[i.index()];
        let hashed = hash_placement(problem.name(i), n);
        let k = if fits(&free[hashed], demand) {
            hashed
        } else if let Some(k) = (0..n)
            .filter(|&k| fits(&free[k], demand))
            .max_by_key(|&k| (free[k][0], std::cmp::Reverse(k)))
        {
            k
        } else {
            // Nothing fits: overflow onto the least-loaded node.
            (0..n)
                .max_by_key(|&k| (free[k][0], std::cmp::Reverse(k)))
                .expect("n > 0")
        };
        place(&mut assignment, &mut free, i, k);
    }

    Placement::new(assignment, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn most_correlated_pair_is_colocated() {
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..4).map(|i| b.add_object(format!("o{i}"), 10)).collect();
        b.add_pair(o[0], o[1], 0.9, 1.0).unwrap();
        b.add_pair(o[2], o[3], 0.8, 1.0).unwrap();
        b.add_pair(o[1], o[2], 0.1, 1.0).unwrap();
        let p = b.uniform_capacities(2, 20).build().unwrap();
        let pl = greedy_placement(&p);
        assert_eq!(pl.node_of(o[0]), pl.node_of(o[1]));
        assert_eq!(pl.node_of(o[2]), pl.node_of(o[3]));
        assert!(pl.within_capacity(&p, 1.0));
        // Cost: only the weak (o1,o2) pair can be split.
        assert!(pl.communication_cost(&p) <= 0.1 + 1e-12);
    }

    #[test]
    fn capacity_prevents_colocation() {
        let mut b = CcaProblem::builder();
        let a = b.add_object("a", 10);
        let c = b.add_object("b", 10);
        b.add_pair(a, c, 1.0, 1.0).unwrap();
        let p = b.uniform_capacities(2, 10).build().unwrap();
        let pl = greedy_placement(&p);
        assert_ne!(pl.node_of(a), pl.node_of(c));
        assert!(pl.within_capacity(&p, 1.0));
    }

    #[test]
    fn uncorrelated_objects_still_get_placed() {
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..6)
            .map(|i| b.add_object(format!("lonely{i}"), 5))
            .collect();
        let p = b.uniform_capacities(3, 15).build().unwrap();
        let pl = greedy_placement(&p);
        assert_eq!(pl.num_objects(), 6);
        assert!(pl.within_capacity(&p, 1.0));
        let _ = o;
    }

    #[test]
    fn greedy_chains_onto_existing_groups() {
        // (a,b) strongest, then (b,c): c should join a,b's node.
        let mut b = CcaProblem::builder();
        let oa = b.add_object("a", 5);
        let ob = b.add_object("b", 5);
        let oc = b.add_object("c", 5);
        b.add_pair(oa, ob, 0.9, 1.0).unwrap();
        b.add_pair(ob, oc, 0.8, 1.0).unwrap();
        let p = b.uniform_capacities(2, 15).build().unwrap();
        let pl = greedy_placement(&p);
        assert_eq!(pl.node_of(oa), pl.node_of(ob));
        assert_eq!(pl.node_of(ob), pl.node_of(oc));
    }

    #[test]
    fn greedy_is_deterministic() {
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..8)
            .map(|i| b.add_object(format!("o{i}"), 3 + i as u64))
            .collect();
        for i in 0..8 {
            for j in i + 1..8 {
                b.add_pair(o[i], o[j], ((i * 7 + j) % 5) as f64 / 5.0 + 0.01, 2.0)
                    .unwrap();
            }
        }
        let p = b.uniform_capacities(3, 30).build().unwrap();
        assert_eq!(greedy_placement(&p), greedy_placement(&p));
    }

    #[test]
    fn overflow_fallback_places_everything() {
        // Capacities too small for everything: greedy must still return a
        // complete placement (mirroring the paper's tolerance of slight
        // overflow under conservative capacities).
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..4).map(|i| b.add_object(format!("o{i}"), 10)).collect();
        b.add_pair(o[0], o[1], 0.5, 1.0).unwrap();
        let p = b.uniform_capacities(2, 12).build().unwrap();
        let pl = greedy_placement(&p);
        assert_eq!(pl.num_objects(), 4);
        // Not within strict capacity (40 > 24 total), but complete.
        assert!(pl.max_capacity_violation(&p) > 0);
    }
}
