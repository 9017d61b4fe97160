//! The greedy correlation-aware baseline (paper §4.1).
//!
//! "We examine keyword pairs in the descending order of their query
//! correlations and always place the most correlated pair on the same node
//! as long as the node capacity permits it."

use crate::placement::Placement;
use crate::problem::{CcaProblem, ObjectId};
use crate::resources::Loads;
use cca_hash::hash_placement;
use std::cmp::Reverse;

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
    let n = problem.num_nodes();
    let mut assignment = vec![u32::MAX; problem.num_objects()];
    // The capacity ledger at slack 1, where every limit is the capacity.
    let mut loads = Loads::new(problem, &[], 1.0);
    let place = |assignment: &mut [u32], loads: &mut Loads, i: ObjectId, k: usize| {
        assignment[i.index()] = k as u32;
        loads.add(i, k);
    };

    // The graph precomputes the (descending correlation, ties (a, b))
    // visit order once at build; the unique (a, b) tie-break makes it a
    // total order, so it equals the per-call sort this replaces.
    for &e in problem.graph().edges_by_correlation() {
        let pair = &problem.pairs()[e.index()];
        let (a, b) = (pair.a, pair.b);
        match (assignment[a.index()], assignment[b.index()]) {
            (u32::MAX, u32::MAX) => {
                let need = loads.demand(&[a, b]);
                if let Some(k) = roomiest(&loads, n, |k| loads.fits_demand(k, &need)) {
                    place(&mut assignment, &mut loads, a, k);
                    place(&mut assignment, &mut loads, b, k);
                }
            }
            (k, u32::MAX) if loads.fits(k as usize, b) => {
                place(&mut assignment, &mut loads, b, k as usize);
            }
            (u32::MAX, k) if loads.fits(k as usize, a) => {
                place(&mut assignment, &mut loads, a, k as usize);
            }
            _ => {}
        }
    }

    // Complete the placement for objects the greedy pass never placed.
    for i in problem.objects() {
        if assignment[i.index()] != u32::MAX {
            continue;
        }
        let hashed = hash_placement(problem.name(i), n);
        let k = if loads.fits(hashed, i) {
            hashed
        } else if let Some(k) = roomiest(&loads, n, |k| loads.fits(k, i)) {
            k
        } else {
            // Nothing fits: overflow onto the least-loaded node.
            roomiest(&loads, n, |_| true).expect("n > 0")
        };
        place(&mut assignment, &mut loads, i, k);
    }

    Placement::new(assignment, n)
}

/// Among the `n` nodes `fits` admits, the one with the most free storage,
/// ties toward the lowest id.
fn roomiest(loads: &Loads, n: usize, fits: impl Fn(usize) -> bool) -> Option<usize> {
    (0..n)
        .filter(|&k| fits(k))
        .max_by_key(|&k| (loads.headroom(k), Reverse(k)))
}

#[cfg(test)]
mod reference {
    //! `greedy_placement` as it was before it ran on the capacity ledger,
    //! with its own exact `i128` free-space and demand tables. Kept
    //! verbatim as the differential oracle the ledger version must match
    //! placement for placement.

    use crate::placement::Placement;
    use crate::problem::{CcaProblem, ObjectId};
    use cca_hash::hash_placement;

    pub(super) fn greedy_placement(problem: &CcaProblem) -> Placement {
        let t = problem.num_objects();
        let n = problem.num_nodes();
        let dims = problem.dimensions();
        let mut assignment = vec![u32::MAX; t];
        // free[node][dim] and demands[object][dim] over the capacity table
        // (storage first), as exact integers.
        let mut free: Vec<Vec<i128>> = (0..n)
            .map(|k| dims.iter().map(|d| i128::from(d.capacity(k))).collect())
            .collect();
        let demands: Vec<Vec<i128>> = problem
            .objects()
            .map(|o| {
                dims.iter()
                    .map(|d| i128::from(d.demand(o.index())))
                    .collect()
            })
            .collect();
        let fits =
            |free_k: &[i128], demand: &[i128]| free_k.iter().zip(demand).all(|(&f, &d)| f >= d);

        let place =
            |assignment: &mut Vec<u32>, free: &mut Vec<Vec<i128>>, i: ObjectId, k: usize| {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::Resource;
    use cca_check::{prop_assert_eq, Checker, Rng, Shrink, StdRng};
    use std::cell::Cell;

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

    /// A random instance for the greedy differential.
    #[derive(Debug, Clone)]
    struct GreedyCase {
        sizes: Vec<u64>,
        /// Optional secondary resource: per-object demands, per-node
        /// capacities.
        resource: Option<(Vec<u64>, Vec<u64>)>,
        /// `(a, b, correlation in 997ths, comm cost in 7ths)`.
        edges: Vec<(usize, usize, u32, u32)>,
        /// Storage capacities; some are 0.
        capacities: Vec<u64>,
    }

    impl Shrink for GreedyCase {
        fn shrink(&self) -> Vec<Self> {
            (self.edges.shrink().into_iter())
                .map(|edges| GreedyCase {
                    edges,
                    ..self.clone()
                })
                .collect()
        }
    }

    /// 1–30 objects of 1–40 units plus a jitter of 0–3 bytes, where a
    /// unit is 1 byte, 2^20, 2^48 or 2^52 bytes (sizes reach 2^57), on
    /// 1–8 nodes, about one in five of them at capacity 0. A node's
    /// capacity is 50–250% of an even share of the total, or in one case
    /// in three the sum of random sizes that first reaches that share,
    /// off by at most one byte, so fits are decided at the last byte
    /// above 2^53 too. A secondary
    /// resource in half the cases. In one case in three the correlations
    /// take only three values, so pairs tie and their order decides.
    fn greedy_case(rng: &mut StdRng) -> GreedyCase {
        let unit = [1u64, 1 << 20, 1 << 48, 1 << 52][rng.random_range(0..4)];
        let t = rng.random_range(1usize..=30);
        let n = rng.random_range(1usize..=8);
        let sizes: Vec<u64> = (0..t)
            .map(|_| rng.random_range(1u64..=40) * unit + rng.random_range(0..=3))
            .collect();
        let ties = rng.random_bool(1.0 / 3.0);
        let mut edges = Vec::new();
        for _ in 0..rng.random_range(0..=2 * t) {
            let r = match ties {
                true => rng.random_range(1u32..=3) * 300,
                false => rng.random_range(1u32..=997),
            };
            edges.push((
                rng.random_range(0..t),
                rng.random_range(0..t),
                r,
                rng.random_range(1u32..=70),
            ));
        }
        let capacities = |rng: &mut StdRng, demands: &[u64]| -> Vec<u64> {
            let total: u128 = demands.iter().map(|&d| u128::from(d)).sum();
            let exact = rng.random_bool(1.0 / 3.0);
            let mut caps: Vec<u64> = (0..n)
                .map(|_| {
                    if rng.random_bool(0.2) {
                        return 0;
                    }
                    let pct = u128::from(rng.random_range(50u64..=250));
                    let share = total * pct / (100 * n as u128);
                    if !exact {
                        return share as u64;
                    }
                    let mut sum = 0u128;
                    for _ in 0..2 * t {
                        if sum >= share {
                            break;
                        }
                        sum += u128::from(demands[rng.random_range(0..t)]);
                    }
                    (sum as u64 + rng.random_range(0..=2)).saturating_sub(1)
                })
                .collect();
            if caps.iter().all(|&c| c == 0) {
                caps[rng.random_range(0..n)] = demands[0];
            }
            caps
        };
        let capacities_storage = capacities(rng, &sizes);
        let resource = rng.random_bool(0.5).then(|| {
            let demands: Vec<u64> = (0..t)
                .map(|_| rng.random_range(0u64..=6) * unit + rng.random_range(0..=1))
                .collect();
            let caps = capacities(rng, &demands);
            (demands, caps)
        });
        GreedyCase {
            sizes,
            resource,
            edges,
            capacities: capacities_storage,
        }
    }

    /// The ledger version makes every placement of the `i128` tables it
    /// replaced: pairs tied on correlation, zero capacities, secondary
    /// resources, the overflow fallback and sizes and capacities beyond
    /// 2^53 included.
    #[test]
    fn greedy_matches_reference_placement() {
        let (overflowed, beyond) = (Cell::new(0u32), Cell::new(0u32));
        Checker::new("greedy_matches_reference_placement")
            .cases(1200)
            .run(greedy_case, |c| {
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
                let p = b.build().expect("valid problem");
                let want = reference::greedy_placement(&p);
                prop_assert_eq!(&greedy_placement(&p), &want);
                let over = (p.dimensions().iter().enumerate()).any(|(d, dim)| {
                    (want.dimension_loads(&p, d).iter().enumerate())
                        .any(|(k, &load)| load > dim.capacity(k))
                });
                overflowed.set(overflowed.get() + u32::from(over));
                beyond.set(beyond.get() + u32::from(c.capacities.iter().any(|&c| c > 1 << 53)));
                Ok(())
            });
        assert!(
            overflowed.get() > 0 && beyond.get() > 0,
            "the generator must reach the overflow fallback ({}) and capacities above 2^53 ({})",
            overflowed.get(),
            beyond.get()
        );
    }

    /// The fit test compares exact integers: an object of 2^53 + 1 bytes,
    /// a size no `f64` holds, does not fit its hash node's 2^53 bytes, so
    /// it lands on the other node, which holds it exactly, and the
    /// placement check agrees with the audit.
    #[test]
    fn fit_test_sees_sizes_beyond_f64_precision() {
        let size = (1u64 << 53) + 1;
        let mut b = CcaProblem::builder();
        let o = b.add_object("big", size);
        let hashed = hash_placement("big", 2);
        let mut capacities = vec![size; 2];
        capacities[hashed] = size - 1;
        let p = b.capacities(capacities).build().unwrap();
        let pl = greedy_placement(&p);
        assert_eq!(pl.node_of(o), 1 - hashed);
        let audit = crate::audit::audit_placement(&p, &pl, 1);
        assert!(audit.violations.is_empty(), "{:?}", audit.violations);
        assert!(pl.within_capacity(&p, 1.0));
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
        assert!(!pl.within_capacity(&p, 1.0));
    }
}
