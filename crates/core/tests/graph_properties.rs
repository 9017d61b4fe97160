//! Property tests for the canonical CSR correlation graph and the
//! incremental move-delta accumulator.
//!
//! Every equality here is **exact** (`==` on `f64`, often on raw bits),
//! not epsilon-tolerant: the generator draws dyadic-rational weights
//! (multiples of 1/8 with small magnitudes), so every partial sum is
//! exactly representable and any summation-order discrepancy the graph
//! layer introduced would show up as a hard mismatch, not as noise under
//! a tolerance.

use cca_check::{gen, prop_assert, prop_assert_eq, Checker, Rng, Shrink, StdRng};
use cca_core::{
    improve_in_place, reconcile, CcaProblem, IncrementalCost, MigrateOptions, ObjectId, Placement,
};

const REGRESSIONS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/graph_properties.regressions");

/// Shrinkable description of a random CCA instance with dyadic weights
/// plus a placement and a move script over it.
#[derive(Debug, Clone)]
struct GraphCase {
    sizes: Vec<u8>,
    nodes: usize,
    /// (a, b, correlation eighths in 1..=8, cost in 1..=16)
    pairs: Vec<(usize, usize, u8, u8)>,
    /// Initial assignment, reduced modulo `nodes`.
    assignment: Vec<u8>,
    /// Move script: (object, target node), reduced modulo the dimensions.
    moves: Vec<(usize, usize)>,
}

impl Shrink for GraphCase {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for moves in self.moves.shrink() {
            out.push(GraphCase { moves, ..self.clone() });
        }
        for pairs in self.pairs.shrink() {
            out.push(GraphCase { pairs, ..self.clone() });
        }
        // The assignment must keep one entry per object.
        for nodes in self.nodes.shrink() {
            if nodes >= 1 {
                out.push(GraphCase { nodes, ..self.clone() });
            }
        }
        out
    }
}

fn graph_case(rng: &mut StdRng) -> GraphCase {
    let t = rng.random_range(2usize..10);
    let sizes = (0..t).map(|_| rng.random_range(1u8..12)).collect();
    let pairs = gen::vec(rng, 0..t * 3, |r| {
        (
            r.random_range(0..t),
            r.random_range(0..t),
            r.random_range(1u8..=8),  // correlation = eighths/8 — dyadic
            r.random_range(1u8..=16), // integral cost
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
    for &(a, d, eighths, cost) in &c.pairs {
        let (a, d) = (a % objs.len(), d % objs.len());
        if a != d {
            // correlation k/8 with k in 1..=8 and integral cost: the pair
            // weight r·w is an exact multiple of 1/8, so all cost sums in
            // these tests are exact in f64.
            b.add_pair(
                objs[a],
                objs[d],
                f64::from(eighths.clamp(1, 8)) / 8.0,
                f64::from(cost.max(1)),
            )
            .expect("valid pair");
        }
    }
    let nodes = c.nodes.max(1);
    let total: u64 = c.sizes.iter().map(|&s| u64::from(s.max(1))).sum();
    b.uniform_capacities(nodes, total + 8)
        .build()
        .expect("valid problem")
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

/// `move_delta(i, a→b)` equals the full-recompute cost difference — to the
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
            let before = pl.communication_cost(&p);
            for o in p.objects() {
                for k in 0..p.num_nodes() {
                    let delta = graph.move_delta(&pl, o, k);
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

/// An [`IncrementalCost`] driven through an arbitrary move script agrees
/// with the full recompute after **every** step, exactly; each `apply`
/// returns exactly the cost change it caused. Post-apply comparisons use
/// `f64 ==` (still exact — dyadic weights): the one bit a running
/// accumulator cannot track is the sign of zero (`2.0 + (-2.0)` is `+0.0`
/// while the recompute's empty fold is `-0.0`), and `==` treats ±0.0 as
/// equal without admitting any magnitude error.
#[test]
fn incremental_cost_tracks_multi_move_sequences() {
    Checker::new("incremental_cost_tracks_multi_move_sequences")
        .cases(128)
        .regressions(REGRESSIONS)
        .run(graph_case, |c| {
            let p = build(c);
            let graph = p.graph();
            let mut pl = placement(c, &p);
            let mut inc = IncrementalCost::new(graph, &pl);
            prop_assert_eq!(inc.cost().to_bits(), pl.communication_cost(&p).to_bits());
            for &(o, k) in &c.moves {
                let o = ObjectId((o % p.num_objects()) as u32);
                let k = k % p.num_nodes();
                let before = pl.communication_cost(&p);
                let predicted = inc.delta(&pl, o, k);
                let applied = inc.apply(&mut pl, o, k);
                prop_assert_eq!(predicted, applied, "delta() and apply() disagree");
                let after = pl.communication_cost(&p);
                prop_assert_eq!(
                    applied,
                    after - before,
                    "apply returned {applied} but the cost moved by {}",
                    after - before
                );
                prop_assert_eq!(
                    inc.cost(),
                    after,
                    "running cost {} != recompute {} after ({o:?} -> {k})",
                    inc.cost(),
                    after
                );
            }
            Ok(())
        });
}

/// `resync` re-anchors the accumulator after out-of-band placement edits:
/// scramble the placement behind the accumulator's back, resync, and the
/// running cost must again equal the recompute to the bit.
#[test]
fn resync_recovers_from_external_edits() {
    Checker::new("resync_recovers_from_external_edits")
        .cases(96)
        .regressions(REGRESSIONS)
        .run(graph_case, |c| {
            let p = build(c);
            let graph = p.graph();
            let mut pl = placement(c, &p);
            let mut inc = IncrementalCost::new(graph, &pl);
            // Out-of-band edits the accumulator never sees.
            for &(o, k) in &c.moves {
                pl.assign(ObjectId((o % p.num_objects()) as u32), k % p.num_nodes());
            }
            // `resync` is a full walk, so it must match to the bit.
            inc.resync(&pl);
            prop_assert_eq!(inc.cost().to_bits(), pl.communication_cost(&p).to_bits());
            // And the re-anchored accumulator keeps tracking exactly
            // (`==`: the running sum may lose only the sign of zero).
            if p.num_objects() > 0 {
                let o = ObjectId(0);
                let k = p.num_nodes() - 1;
                inc.apply(&mut pl, o, k);
                prop_assert_eq!(inc.cost(), pl.communication_cost(&p));
            }
            Ok(())
        });
}

/// The delta-driven migration paths report costs that equal the full
/// recompute on their returned placements, exactly: `improve_in_place`
/// (which runs on the accumulator internally) and `reconcile` must never
/// drift from the canonical cost.
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
            // Back-map: edge `e` of the graph is `pairs()[e]`, same weight
            // bits (the graph precomputes the identical r·w multiply).
            for (e, pair) in p.pairs().iter().enumerate() {
                let edge = graph.edge(cca_core::EdgeId(e as u32));
                prop_assert_eq!(edge.a, pair.a);
                prop_assert_eq!(edge.b, pair.b);
                prop_assert_eq!(edge.weight.to_bits(), pair.weight().to_bits());
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
                    prop_assert_eq!(w.to_bits(), p.pairs()[e].weight().to_bits());
                    row_hits[e] += 1;
                    prop_assert!(
                        graph.neighbors(other).any(|(back, bw)| back == o && bw == w),
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

/// The graph cost is bit-identical to the historic dense pair scan
/// (`filter · map · sum` over the pair list), including the `-0.0` that
/// scan produces for fully co-located placements.
#[test]
fn graph_cost_is_bitwise_pair_scan() {
    Checker::new("graph_cost_is_bitwise_pair_scan")
        .cases(128)
        .regressions(REGRESSIONS)
        .run(graph_case, |c| {
            let p = build(c);
            let pl = placement(c, &p);
            let scan: f64 = p
                .pairs()
                .iter()
                .filter(|pr| pl.node_of(pr.a) != pl.node_of(pr.b))
                .map(|pr| pr.weight())
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
