//! Exact-equality property tests for the batched placement-evaluation
//! kernel: one CSR edge walk scoring `k` candidate columns must be
//! **bit-identical** to `k` independent serial walks, for every batch
//! width and thread count.
//!
//! As in `graph_properties`, the generator draws dyadic-rational weights
//! (multiples of 1/8 with small magnitudes), so every partial sum is
//! exactly representable in `f64` and all comparisons here are on raw
//! bits — any summation-order drift the batch layer introduced would be a
//! hard failure, not noise under a tolerance.

use cca_check::{gen, prop_assert, prop_assert_eq, Checker, Rng, SeedableRng, Shrink, StdRng};
use cca_core::{
    round_best_of_within, round_samples, CcaProblem, CorrelationGraph, FractionalPlacement,
    ObjectId, Pair, Placement, PlacementBatch, ReplicaPlacement,
};

const REGRESSIONS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/batch_properties.regressions"
);

/// Shrinkable description of a random CCA instance with dyadic weights
/// plus a batch of candidate assignment columns over it.
#[derive(Debug, Clone)]
struct BatchCase {
    sizes: Vec<u8>,
    nodes: usize,
    /// (a, b, correlation eighths in 1..=8, cost in 1..=16)
    pairs: Vec<(usize, usize, u8, u8)>,
    /// Candidate columns, each entry reduced modulo `nodes`.
    columns: Vec<Vec<u8>>,
    /// Per-node capacity in sixteenths of the total size — below 16 the
    /// instance is tight and some candidates are infeasible, which is
    /// exactly the regime the best-of selection rules must agree in.
    cap_sixteenths: u8,
    /// Seed for the fractional matrix and the rounding streams.
    seed: u64,
}

impl Shrink for BatchCase {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        // Drop whole columns only: each must keep one entry per object.
        for keep in 0..self.columns.len() {
            out.push(BatchCase {
                columns: self.columns[..keep].to_vec(),
                ..self.clone()
            });
        }
        for pairs in self.pairs.shrink() {
            out.push(BatchCase {
                pairs,
                ..self.clone()
            });
        }
        for nodes in self.nodes.shrink() {
            if nodes >= 1 {
                out.push(BatchCase {
                    nodes,
                    ..self.clone()
                });
            }
        }
        out
    }
}

fn batch_case(rng: &mut StdRng) -> BatchCase {
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
    let width = rng.random_range(0usize..7);
    let columns = (0..width)
        .map(|_| (0..t).map(|_| rng.random_range(0u8..16)).collect())
        .collect();
    BatchCase {
        sizes,
        nodes,
        pairs,
        columns,
        cap_sixteenths: rng.random_range(6u8..=24),
        seed: rng.random(),
    }
}

/// Every shrink candidate keeps each column at the object count, so a
/// shrunk failure still reports the divergence it found instead of a
/// placement-dimension panic.
#[test]
fn shrinking_keeps_every_column_whole() {
    let mut rng = StdRng::seed_from_u64(0x5b1c);
    for _ in 0..64 {
        let case = batch_case(&mut rng);
        for shrunk in case.shrink() {
            for col in &shrunk.columns {
                assert_eq!(col.len(), shrunk.sizes.len(), "{shrunk:?}");
            }
        }
    }
}

fn build(c: &BatchCase) -> CcaProblem {
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
    let cap = (total * u64::from(c.cap_sixteenths.max(1))) / 16 + 1;
    b.uniform_capacities(nodes, cap)
        .build()
        .expect("valid problem")
}

fn candidates(c: &BatchCase, p: &CcaProblem) -> Vec<Placement> {
    let n = p.num_nodes();
    c.columns
        .iter()
        .map(|col| {
            Placement::new(
                col.iter()
                    .take(p.num_objects())
                    .map(|&k| u32::from(k) % n as u32)
                    .collect(),
                n,
            )
        })
        .collect()
}

fn batch_of(p: &CcaProblem, pls: &[Placement]) -> PlacementBatch {
    let mut batch = PlacementBatch::new(p.num_objects(), p.num_nodes());
    for pl in pls {
        batch.push(pl);
    }
    batch
}

/// Column `i` of one batched edge walk carries exactly the bits of the
/// serial `cost(placement_i)` fold — for every batch width including 0
/// and 1, so a batch-of-1 is indistinguishable from the single-candidate
/// path.
#[test]
fn cost_batch_columns_bit_equal_serial_cost() {
    Checker::new("cost_batch_columns_bit_equal_serial_cost")
        .cases(128)
        .regressions(REGRESSIONS)
        .run(batch_case, |c| {
            let p = build(c);
            let graph = p.graph();
            let pls = candidates(c, &p);
            let costs = graph.cost_batch(&batch_of(&p, &pls));
            prop_assert_eq!(costs.len(), pls.len());
            for (i, pl) in pls.iter().enumerate() {
                prop_assert_eq!(
                    costs[i].to_bits(),
                    graph.cost(pl).to_bits(),
                    "column {i}: batch {} != serial {}",
                    costs[i],
                    graph.cost(pl)
                );
                prop_assert_eq!(costs[i].to_bits(), pl.communication_cost(&p).to_bits());
                // A batch of exactly this one candidate is the same walk.
                let solo = graph.cost_batch(&batch_of(&p, std::slice::from_ref(pl)));
                prop_assert_eq!(solo[0].to_bits(), costs[i].to_bits());
            }
            Ok(())
        });
}

/// One CSR row walk scoring all targets of one object (the every-target
/// kernel on the `r = 1` copy set) equals the per-target
/// `replica_move_delta` recomputation to the bit.
#[test]
fn move_delta_batch_bit_equals_per_move_delta() {
    Checker::new("move_delta_batch_bit_equals_per_move_delta")
        .cases(128)
        .regressions(REGRESSIONS)
        .run(batch_case, |c| {
            let p = build(c);
            let graph = p.graph();
            let Some(pl) = candidates(c, &p).into_iter().next() else {
                return Ok(());
            };
            let targets: Vec<usize> = (0..p.num_nodes()).collect();
            let rp = ReplicaPlacement::from_primary(pl.clone());
            let mut deltas = vec![f64::NAN; p.num_nodes()];
            for o in p.objects() {
                p.eval_replica_move_deltas(&rp, o, 0, &mut deltas);
                for (&k, &d) in targets.iter().zip(&deltas) {
                    let serial = graph.replica_move_delta(&rp, o, 0, k);
                    prop_assert_eq!(
                        d.to_bits(),
                        serial.to_bits(),
                        "object {o:?} -> node {k}: batch {d} != serial {serial}"
                    );
                }
                prop_assert_eq!(
                    deltas[pl.node_of(o)].to_bits(),
                    0.0f64.to_bits(),
                    "moving onto the source node must be exactly +0.0"
                );
            }
            Ok(())
        });
}

/// The batch-scored best-of selection picks the same winner as a
/// sequential reference loop that recomputes each candidate's cost with
/// its own serial walk, for thread counts 1, 2, 4 and 8 — on tight
/// instances this exercises the infeasible (least-overloaded) branch of
/// the selection rules too.
#[test]
fn batched_best_of_matches_sequential_reference() {
    Checker::new("batched_best_of_matches_sequential_reference")
        .cases(64)
        .regressions(REGRESSIONS)
        .run(batch_case, |c| {
            let p = build(c);
            let (t, n) = (p.num_objects(), p.num_nodes());
            // A strictly positive dyadic matrix, normalised row-stochastic.
            let mut frng = StdRng::seed_from_u64(c.seed);
            let x: Vec<f64> = (0..t * n)
                .map(|_| f64::from(frng.random_range(1u32..=16)))
                .collect();
            let mut fractional = FractionalPlacement::new(x, t, n);
            fractional.normalise();
            let repetitions = 16;
            let slack = 1.0;

            // Sequential reference: same substreams, one serial cost walk
            // and one selection pass per candidate, in repetition order.
            let samples =
                round_samples(&fractional, repetitions, c.seed, 1).map_err(|e| e.to_string())?;
            let mut best: Option<(bool, f64, f64, usize)> = None;
            for (idx, s) in samples.iter().enumerate() {
                let cost = s.communication_cost(&p);
                let feasible = s.within_all_capacities(&p, slack);
                // Storage-only worst ratio: these instances carry no
                // secondary resources, so this equals the library's rule.
                let ratio = s
                    .loads(&p)
                    .iter()
                    .enumerate()
                    .map(|(k, &load)| {
                        if load == 0 {
                            0.0
                        } else {
                            load as f64 / p.capacity(k) as f64
                        }
                    })
                    .fold(0.0, f64::max);
                let better = match &best {
                    None => true,
                    Some((bf, bc, br, _)) => match (feasible, *bf) {
                        (true, false) => true,
                        (false, true) => false,
                        (true, true) => cost < *bc,
                        (false, false) => ratio < *br || (ratio == *br && cost < *bc),
                    },
                };
                if better {
                    best = Some((feasible, cost, ratio, idx));
                }
            }
            let (feasible, cost, ratio, idx) = best.expect("repetitions >= 1");

            for threads in [1usize, 2, 4, 8] {
                let out = round_best_of_within(
                    &fractional,
                    &p,
                    repetitions,
                    slack,
                    None,
                    c.seed,
                    threads,
                )
                .map_err(|e| e.to_string())?;
                prop_assert_eq!(
                    out.placement.as_slice(),
                    samples[idx].as_slice(),
                    "threads {threads}: batched winner differs from sequential reference"
                );
                prop_assert_eq!(out.cost.to_bits(), cost.to_bits(), "threads {threads}");
                prop_assert_eq!(out.within_capacity, feasible, "threads {threads}");
                prop_assert_eq!(out.max_load_ratio.to_bits(), ratio.to_bits());
                prop_assert_eq!(out.repetitions, repetitions);
            }
            Ok(())
        });
}

/// Node counts past `2^24` take the wide (`f64`) interleaved layout —
/// `f32` could not hold those ids exactly — and the batch columns must
/// still carry the serial fold's bits. A `Placement` stores the node
/// count without allocating per node, so the huge count costs nothing.
#[test]
fn wide_interleave_fallback_bit_equals_serial() {
    let huge = (1usize << 24) + 7;
    let pairs: Vec<Pair> = (0..5u32)
        .map(|i| Pair {
            a: ObjectId(i),
            b: ObjectId(i + 1),
            correlation: f64::from(i % 8 + 1) / 8.0,
            comm_cost: f64::from(i + 1),
        })
        .collect();
    let graph = CorrelationGraph::build(6, &pairs);
    // Columns straddling the f32-exactness boundary: ids around 2^24
    // where consecutive u32s collapse to the same f32.
    let cols = [
        vec![0, 1 << 24, (1 << 24) + 1, 2, (1 << 24) + 3, 5],
        vec![(1 << 24) + 1, 1 << 24, (1 << 24) + 1, 2, (1 << 24) + 3, 5],
        vec![0; 6],
    ];
    let pls: Vec<Placement> = cols
        .iter()
        .map(|c| Placement::new(c.clone(), huge))
        .collect();
    let mut batch = PlacementBatch::new(6, huge);
    for pl in &pls {
        batch.push(pl);
    }
    let costs = graph.cost_batch(&batch);
    for (i, pl) in pls.iter().enumerate() {
        assert_eq!(
            costs[i].to_bits(),
            graph.cost(pl).to_bits(),
            "column {i}: wide-layout batch diverged from serial walk"
        );
    }
}

/// Pins the f32/f64 interleave width switch at its exact boundary
/// (`num_nodes <= 2^24` takes the narrow layout): at `2^24 - 1`, `2^24`
/// and `2^24 + 1` nodes, every batch column must carry the serial fold's
/// bits, and columns differing only in top-of-range node ids must stay
/// distinguishable. The switch is conservative by exactly one: every id
/// `<= 2^24` is f32-exact (the first unrepresentable integer is
/// `2^24 + 1`), so correctness needs wide only from `2^24 + 2` nodes on —
/// this test keeps the cheaper-but-sufficient boundary from drifting in
/// either direction.
#[test]
fn interleave_width_switch_is_exact_at_the_boundary() {
    let pairs: Vec<Pair> = (0..6u32)
        .map(|i| Pair {
            a: ObjectId(i),
            b: ObjectId(i + 1),
            correlation: f64::from(i % 8 + 1) / 8.0,
            comm_cost: f64::from(i + 1),
        })
        .collect();
    let graph = CorrelationGraph::build(7, &pairs);
    for num_nodes in [(1usize << 24) - 1, 1 << 24, (1 << 24) + 1] {
        let top = (num_nodes - 1) as u32;
        // Columns exercising the extreme ids of this node count: all
        // placements split some edges across ids only the exact layout
        // can tell apart (top vs top-1 vs 0).
        let cols: [Vec<u32>; 4] = [
            vec![top, top - 1, top, top - 1, top, top - 1, top],
            vec![top, top, top, top - 1, top - 1, top - 1, 0],
            vec![0, top, 0, top, 0, top, 0],
            vec![top; 7],
        ];
        let pls: Vec<Placement> = cols
            .iter()
            .map(|c| Placement::new(c.clone(), num_nodes))
            .collect();
        let mut batch = PlacementBatch::new(7, num_nodes);
        for pl in &pls {
            batch.push(pl);
        }
        let costs = graph.cost_batch(&batch);
        for (i, pl) in pls.iter().enumerate() {
            assert_eq!(
                costs[i].to_bits(),
                graph.cost(pl).to_bits(),
                "column {i}: batch diverged from serial walk at {num_nodes} nodes"
            );
        }
        // The all-on-top column never splits an edge: the fold identity
        // must survive the width switch.
        assert_eq!(costs[3].to_bits(), (-0.0f64).to_bits());
        // Adjacent top ids must not collapse: column 0 splits every edge.
        let every_edge: f64 = pairs.iter().map(|p| p.weight()).sum();
        assert_eq!(costs[0].to_bits(), every_edge.to_bits());
    }
}

/// Empty and degenerate batches: width 0 scores nothing, and a batch over
/// a fully co-located column reproduces the `-0.0` sum-fold identity in
/// every column.
#[test]
fn degenerate_batches_keep_fold_identities() {
    Checker::new("degenerate_batches_keep_fold_identities")
        .cases(64)
        .regressions(REGRESSIONS)
        .run(batch_case, |c| {
            let p = build(c);
            let graph = p.graph();
            let empty = PlacementBatch::new(p.num_objects(), p.num_nodes());
            prop_assert!(graph.cost_batch(&empty).is_empty());
            let home = Placement::new(vec![0; p.num_objects()], p.num_nodes());
            let batch = batch_of(&p, &[home.clone(), home]);
            for (i, cost) in graph.cost_batch(&batch).into_iter().enumerate() {
                prop_assert_eq!(
                    cost.to_bits(),
                    (-0.0f64).to_bits(),
                    "column {i}: all-colocated batch column must be -0.0"
                );
            }
            Ok(())
        });
}

/// Zero-weight edges: a builder pair whose `r·w` underflows to `0.0` and a
/// directly built zero-correlation [`Pair`]. Splitting only such edges
/// moves a column from the `-0.0` identity to `+0.0` (`-0.0 + 0.0`), so
/// at every width 1–17 (each monomorphised width and the dynamic tiles
/// with their remainders) the batch must still carry each column's
/// serial bits: split-nothing columns `-0.0`, zero-weight-only splits
/// `+0.0`, and mixes the plain sum.
#[test]
fn zero_weight_edges_keep_serial_bits_at_every_width() {
    let mut b = CcaProblem::builder();
    let objs: Vec<_> = (0..6).map(|i| b.add_object(format!("o{i}"), 1)).collect();
    b.add_pair(objs[0], objs[1], 1e-200, 1e-200)
        .expect("valid pair");
    b.add_pair(objs[1], objs[2], 0.375, 1.0)
        .expect("valid pair");
    b.add_pair(objs[2], objs[3], 1e-300, 1e-100)
        .expect("valid pair");
    b.add_pair(objs[3], objs[4], 0.5, 4.0).expect("valid pair");
    b.add_pair(objs[4], objs[5], 1e-250, 1e-150)
        .expect("valid pair");
    let built = b.uniform_capacities(3, 6).build().expect("valid problem");
    let zero_edges = built.graph().edges().filter(|e| e.weight == 0.0).count();
    assert_eq!(zero_edges, 3, "the r·w products must underflow to 0.0");

    let direct_pairs: Vec<Pair> = [
        (0, 1, 0.0),
        (1, 2, 0.375),
        (2, 3, 0.0),
        (3, 4, 0.5),
        (4, 5, 0.0),
    ]
    .into_iter()
    .map(|(a, b, correlation)| Pair {
        a: ObjectId(a),
        b: ObjectId(b),
        correlation,
        comm_cost: 4.0,
    })
    .collect();
    let direct = CorrelationGraph::build(6, &direct_pairs);

    // Splits nothing; splits only the zero-weight edges; mixes.
    let fixed: [[u32; 6]; 4] = [
        [0, 0, 0, 0, 0, 0],
        [0, 1, 1, 2, 2, 0],
        [0, 1, 2, 2, 2, 2],
        [1, 0, 1, 0, 1, 0],
    ];
    let mut rng = StdRng::seed_from_u64(17);
    let pool: Vec<Placement> = fixed
        .iter()
        .map(|c| c.to_vec())
        .chain((0..13).map(|_| (0..6).map(|_| rng.random_range(0u32..3)).collect()))
        .map(|c| Placement::new(c, 3))
        .collect();
    for graph in [built.graph(), &direct] {
        assert_eq!(graph.cost(&pool[0]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(graph.cost(&pool[1]).to_bits(), 0.0f64.to_bits());
        for width in 1..=17 {
            let pls = &pool[..width];
            let costs = graph.cost_batch(&PlacementBatch::from_placements(pls));
            for (i, pl) in pls.iter().enumerate() {
                assert_eq!(
                    costs[i].to_bits(),
                    graph.cost(pl).to_bits(),
                    "width {width}, column {i}: batch {} != serial {}",
                    costs[i],
                    graph.cost(pl)
                );
            }
        }
    }
}
