//! Property tests for the canonical CSR correlation graph and its
//! move deltas.
//!
//! Every equality here is **exact** (`==` on `f64`, often on raw bits),
//! not epsilon-tolerant. The generator draws dyadic weights (multiples of
//! 1/8 with small magnitudes), tenths, and reals across several
//! magnitudes; the graph snaps each to its quantum, so every partial sum
//! is exactly representable and any summation-order discrepancy the graph
//! layer introduced would show up as a hard mismatch, not as noise under
//! a tolerance.

use cca_check::{gen, prop_assert, prop_assert_eq, Checker, Rng, Shrink, StdRng};
use cca_core::{
    improve_in_place, reconcile, CcaProblem, MigrateOptions, ObjectId, Placement, ReplicaPlacement,
};

const REGRESSIONS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/graph_properties.regressions"
);

/// Shrinkable description of a random CCA instance plus a placement and
/// a move script over it.
#[derive(Debug, Clone)]
struct GraphCase {
    sizes: Vec<u8>,
    nodes: usize,
    /// (a, b, correlation, cost): eighths × integers, tenths × integers,
    /// or reals across magnitudes, one kind per case.
    pairs: Vec<(usize, usize, f64, f64)>,
    /// Initial assignment, reduced modulo `nodes`.
    assignment: Vec<u8>,
    /// Move script: (object, target node), reduced modulo the dimensions.
    moves: Vec<(usize, usize)>,
}

impl Shrink for GraphCase {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for moves in self.moves.shrink() {
            out.push(GraphCase {
                moves,
                ..self.clone()
            });
        }
        for pairs in self.pairs.shrink() {
            out.push(GraphCase {
                pairs,
                ..self.clone()
            });
        }
        // The assignment must keep one entry per object.
        for nodes in self.nodes.shrink() {
            if nodes >= 1 {
                out.push(GraphCase {
                    nodes,
                    ..self.clone()
                });
            }
        }
        out
    }
}

fn graph_case(rng: &mut StdRng) -> GraphCase {
    let t = rng.random_range(2usize..10);
    let sizes = (0..t).map(|_| rng.random_range(1u8..12)).collect();
    let kind = rng.random_range(0u8..3);
    let pairs = gen::vec(rng, 0..t * 3, |r| {
        let (correlation, cost) = match kind {
            // Dyadic: every raw sum is exact already.
            0 => (
                f64::from(r.random_range(1u8..=8)) / 8.0,
                f64::from(r.random_range(1u8..=16)),
            ),
            // Tenths: `0.3 · 7` is not a binary fraction.
            1 => (
                f64::from(r.random_range(1u8..=9)) / 10.0,
                f64::from(r.random_range(1u8..=16)),
            ),
            // Reals from 1e-3 to 1e6.
            _ => (
                r.random_range(0.001..1.0),
                r.random_range(1.0..10.0) * 10f64.powi(r.random_range(-3i32..=6)),
            ),
        };
        (
            r.random_range(0..t),
            r.random_range(0..t),
            correlation,
            cost,
        )
    });
    let nodes = rng.random_range(1usize..5);
    let assignment = (0..t).map(|_| rng.random_range(0u8..16)).collect();
    let moves = gen::vec(rng, 0..24, |r| {
        (r.random_range(0..t), r.random_range(0usize..16))
    });
    GraphCase {
        sizes,
        nodes,
        pairs,
        assignment,
        moves,
    }
}

fn build(c: &GraphCase) -> CcaProblem {
    let mut b = CcaProblem::builder();
    let objs: Vec<_> = c
        .sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| b.add_object(format!("o{i}"), u64::from(s.max(1))))
        .collect();
    for &(a, d, correlation, cost) in &c.pairs {
        let (a, d) = (a % objs.len(), d % objs.len());
        if a != d {
            b.add_pair(objs[a], objs[d], correlation, cost)
                .expect("valid pair");
        }
    }
    let nodes = c.nodes.max(1);
    let total: u64 = c.sizes.iter().map(|&s| u64::from(s.max(1))).sum();
    b.uniform_capacities(nodes, total + 8)
        .build()
        .expect("valid problem")
}

/// Pair `e`'s `r·w` snapped to the graph's quantum: the weight every
/// cost reads.
fn snapped(p: &CcaProblem, e: usize) -> f64 {
    let q = p.graph().quantum();
    (p.pairs()[e].weight() / q).round() * q
}

fn placement(c: &GraphCase, p: &CcaProblem) -> Placement {
    let n = p.num_nodes();
    Placement::new(
        c.assignment
            .iter()
            .take(p.num_objects())
            .map(|&k| u32::from(k) % n as u32)
            .collect(),
        n,
    )
}

/// The single-copy move delta `Δ(i, a→b)` — the replica kernel on the
/// `r = 1` copy set — equals the full-recompute cost difference, to the
/// bit, for every (object, target) combination of the instance.
#[test]
fn move_delta_equals_full_recompute_difference() {
    Checker::new("move_delta_equals_full_recompute_difference")
        .cases(128)
        .regressions(REGRESSIONS)
        .run(graph_case, |c| {
            let p = build(c);
            let graph = p.graph();
            let pl = placement(c, &p);
            let rp = ReplicaPlacement::from_primary(pl.clone());
            let before = pl.communication_cost(&p);
            for o in p.objects() {
                for k in 0..p.num_nodes() {
                    let delta = graph.replica_move_delta(&rp, o, 0, k);
                    let mut moved = pl.clone();
                    moved.assign(o, k);
                    let after = moved.communication_cost(&p);
                    prop_assert_eq!(
                        after - before,
                        delta,
                        "object {o:?} -> node {k}: recompute diff {} != delta {}",
                        after - before,
                        delta
                    );
                }
            }
            Ok(())
        });
}

/// A running cost — the start's full walk plus each applied move's
/// `r = 1` move delta — driven through an arbitrary move script agrees with the
/// full recompute after **every** step, exactly, on non-dyadic weights
/// as well; each delta is exactly the cost change its move causes.
/// Post-move comparisons use `f64 ==` (still exact — snapped weights):
/// the one bit a running sum cannot track is the sign of zero
/// (`2.0 + (-2.0)` is `+0.0` while the recompute's empty fold is `-0.0`),
/// and `==` treats ±0.0 as equal without admitting any magnitude error.
#[test]
fn incremental_cost_tracks_multi_move_sequences() {
    Checker::new("incremental_cost_tracks_multi_move_sequences")
        .cases(128)
        .regressions(REGRESSIONS)
        .run(graph_case, |c| {
            let p = build(c);
            let graph = p.graph();
            let mut rp = ReplicaPlacement::from_primary(placement(c, &p));
            let mut running = graph.cost(rp.primary());
            prop_assert_eq!(
                running.to_bits(),
                rp.primary().communication_cost(&p).to_bits()
            );
            for &(o, k) in &c.moves {
                let o = ObjectId((o % p.num_objects()) as u32);
                let k = k % p.num_nodes();
                let before = rp.primary().communication_cost(&p);
                let delta = graph.replica_move_delta(&rp, o, 0, k);
                rp.assign(o, 0, k);
                running += delta;
                let after = rp.primary().communication_cost(&p);
                prop_assert_eq!(
                    delta,
                    after - before,
                    "delta {delta} but the cost moved by {}",
                    after - before
                );
                prop_assert_eq!(
                    running,
                    after,
                    "running cost {running} != recompute {after} after ({o:?} -> {k})"
                );
            }
            Ok(())
        });
}

/// The delta-driven migration paths report costs that equal the full
/// recompute on their returned placements, exactly: `improve_in_place`
/// and `reconcile` must never drift from the canonical cost.
#[test]
fn migration_outcomes_report_exact_costs() {
    Checker::new("migration_outcomes_report_exact_costs")
        .cases(64)
        .regressions(REGRESSIONS)
        .run(graph_case, |c| {
            let p = build(c);
            let pl = placement(c, &p);
            let options = MigrateOptions::default();
            let improved = improve_in_place(&p, &pl, &options);
            prop_assert_eq!(
                improved.comm_cost.to_bits(),
                improved.placement.communication_cost(&p).to_bits(),
                "improve_in_place reported a cost that is not the recompute"
            );
            prop_assert!(
                improved.comm_cost <= pl.communication_cost(&p),
                "improve_in_place made the placement worse"
            );
            // Reconcile towards a scrambled desired placement.
            let desired = {
                let mut d = pl.clone();
                for &(o, k) in &c.moves {
                    d.assign(ObjectId((o % p.num_objects()) as u32), k % p.num_nodes());
                }
                d
            };
            let out = reconcile(&p, &pl, &desired, u64::MAX, &options);
            prop_assert_eq!(
                out.comm_cost.to_bits(),
                out.placement.communication_cost(&p).to_bits(),
                "reconcile reported a cost that is not the recompute"
            );
            Ok(())
        });
}

/// Structural CSR invariants: the `EdgeId` back-map onto `pairs()` and
/// row symmetry.
#[test]
fn csr_structure_matches_pair_list() {
    Checker::new("csr_structure_matches_pair_list")
        .cases(128)
        .regressions(REGRESSIONS)
        .run(graph_case, |c| {
            let p = build(c);
            let graph = p.graph();
            prop_assert_eq!(graph.num_edges(), p.pairs().len());
            prop_assert_eq!(graph.num_objects(), p.num_objects());
            // Back-map: edge `e` of the graph is `pairs()[e]`, its weight
            // the pair's `r·w` snapped to the quantum.
            for (e, pair) in p.pairs().iter().enumerate() {
                let edge = graph.edge(cca_core::EdgeId(e as u32));
                prop_assert_eq!(edge.a, pair.a);
                prop_assert_eq!(edge.b, pair.b);
                prop_assert_eq!(edge.weight.to_bits(), snapped(&p, e).to_bits());
            }
            // Each edge appears in exactly both endpoint rows; rows are
            // symmetric.
            let edge_of: std::collections::HashMap<_, usize> = p
                .pairs()
                .iter()
                .enumerate()
                .map(|(e, pair)| ((pair.a, pair.b), e))
                .collect();
            let mut row_hits = vec![0usize; p.pairs().len()];
            for o in p.objects() {
                for (other, w) in graph.neighbors(o) {
                    let e = edge_of[&(o.min(other), o.max(other))];
                    prop_assert_eq!(w.to_bits(), snapped(&p, e).to_bits());
                    row_hits[e] += 1;
                    prop_assert!(
                        graph
                            .neighbors(other)
                            .any(|(back, bw)| back == o && bw == w),
                        "row of {other:?} is missing the back-edge to {o:?}"
                    );
                }
                prop_assert_eq!(graph.degree(o), graph.neighbors(o).count());
            }
            prop_assert!(
                row_hits.iter().all(|&h| h == 2),
                "every edge must sit in exactly its two endpoint rows: {row_hits:?}"
            );
            Ok(())
        });
}

/// The graph cost is bit-identical to a dense pair scan (`filter · map ·
/// sum` over the pair list, with snapped weights), including the `-0.0`
/// that scan produces for fully co-located placements.
#[test]
fn graph_cost_is_bitwise_pair_scan() {
    Checker::new("graph_cost_is_bitwise_pair_scan")
        .cases(128)
        .regressions(REGRESSIONS)
        .run(graph_case, |c| {
            let p = build(c);
            let pl = placement(c, &p);
            let scan: f64 = (0..p.pairs().len())
                .filter(|&e| pl.node_of(p.pairs()[e].a) != pl.node_of(p.pairs()[e].b))
                .map(|e| snapped(&p, e))
                .sum();
            prop_assert_eq!(
                p.graph().cost(&pl).to_bits(),
                scan.to_bits(),
                "graph cost {} != pair scan {}",
                p.graph().cost(&pl),
                scan
            );
            let everyone_home = Placement::new(vec![0; p.num_objects()], p.num_nodes());
            prop_assert_eq!(
                p.graph().cost(&everyone_home).to_bits(),
                (-0.0f64).to_bits(),
                "all-colocated cost must be the sum-fold identity -0.0"
            );
            Ok(())
        });
}
