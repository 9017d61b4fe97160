//! Shard-invariance property battery for [`cca_core::ShardedGraph`]
//! (DESIGN.md §11), exercised through the `CcaProblem::eval_*` folds
//! with sharding on.
//!
//! Every equality here is **exact** (`==` on raw `f64` bits), not
//! epsilon-tolerant. Most properties draw dyadic-rational weights
//! (multiples of 1/8 with small magnitudes), so every partial sum is
//! exactly representable and any reduction the sharded view performs —
//! for **any** shard count {1, 2, 7, num_objects} at **any** thread
//! count {1, 2, 8} — must reproduce the flat CSR's bits, not merely
//! approximate them. The last property draws non-dyadic weights and pins
//! what a sharded fold returns when the association of the sum does show:
//! the shard-order reference, written out in the test. The thread axis
//! must never appear in any result.

use cca_check::{gen, prop_assert, prop_assert_eq, Checker, Rng, Shrink, StdRng};
use cca_core::{
    CcaProblem, EdgeId, ObjectId, Placement, PlacementBatch, ReplicaPlacement, ShardedGraph,
};
use std::ops::Range;

const REGRESSIONS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/shard_properties.regressions");

/// Shrinkable description of a random CCA instance with dyadic weights
/// plus a batch of candidate placements over it.
#[derive(Debug, Clone)]
struct ShardCase {
    sizes: Vec<u8>,
    nodes: usize,
    /// (a, b, correlation eighths in 1..=8, cost in 1..=16)
    pairs: Vec<(usize, usize, u8, u8)>,
    /// Candidate assignments, each reduced modulo `nodes`.
    candidates: Vec<Vec<u8>>,
}

impl Shrink for ShardCase {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for pairs in self.pairs.shrink() {
            out.push(ShardCase { pairs, ..self.clone() });
        }
        for candidates in self.candidates.shrink() {
            if !candidates.is_empty() {
                out.push(ShardCase { candidates, ..self.clone() });
            }
        }
        for nodes in self.nodes.shrink() {
            if nodes >= 1 {
                out.push(ShardCase { nodes, ..self.clone() });
            }
        }
        out
    }
}

fn shard_case(rng: &mut StdRng) -> ShardCase {
    let t = rng.random_range(2usize..14);
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
    let k = rng.random_range(1usize..7);
    let candidates = (0..k)
        .map(|_| (0..t).map(|_| rng.random_range(0u8..16)).collect())
        .collect();
    ShardCase {
        sizes,
        nodes,
        pairs,
        candidates,
    }
}

fn build(c: &ShardCase) -> CcaProblem {
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
    b.uniform_capacities(nodes, total + 8)
        .build()
        .expect("valid problem")
}

fn candidate(c: &ShardCase, p: &CcaProblem, idx: usize) -> Placement {
    let n = p.num_nodes();
    Placement::new(
        c.candidates[idx]
            .iter()
            .take(p.num_objects())
            .map(|&k| u32::from(k) % n as u32)
            .collect(),
        n,
    )
}

/// The shard/thread axes to sweep: the ISSUE's required shard counts
/// (with `num_objects` substituted at run time) crossed with the PR-3
/// thread battery.
const THREADS: [usize; 3] = [1, 2, 8];

fn shard_counts(num_objects: usize) -> [usize; 4] {
    [1, 2, 7, num_objects]
}

/// `p` with sharding on at `shards` shards.
fn sharded(p: &CcaProblem, shards: usize) -> CcaProblem {
    let mut q = p.clone();
    q.set_sharding(shards, 1);
    q
}

/// Edges the shards of `sg` own, counted over every range.
fn owned_edges(sg: &ShardedGraph) -> usize {
    (0..sg.shard_count())
        .flat_map(|s| sg.edge_ranges(s))
        .map(|r| r.end.index() - r.start.index())
        .sum()
}

/// The sharded `eval_cost` is bit-identical to the flat serial
/// [`cca_core::CorrelationGraph::cost`] for every shard count at every
/// thread count, and the partition is structurally consistent (clamped
/// shard count, edge conservation).
#[test]
fn sharded_cost_is_bitwise_flat_cost() {
    Checker::new("sharded_cost_is_bitwise_flat_cost")
        .cases(96)
        .regressions(REGRESSIONS)
        .run(shard_case, |c| {
            let p = build(c);
            let pl = candidate(c, &p, 0);
            let flat = p.graph().cost(&pl);
            for shards in shard_counts(p.num_objects()) {
                let q = sharded(&p, shards);
                let sg = q.sharded().expect("sharding is on");
                prop_assert_eq!(sg.shard_count(), shards.clamp(1, p.num_objects()));
                prop_assert_eq!(owned_edges(sg), p.pairs().len());
                for threads in THREADS {
                    prop_assert_eq!(
                        q.eval_cost(&pl, threads).to_bits(),
                        flat.to_bits(),
                        "cost diverged at {shards} shards / {threads} threads: {} != {}",
                        q.eval_cost(&pl, threads),
                        flat
                    );
                }
            }
            Ok(())
        });
}

/// The sharded `eval_cost_batch` column `c` is bit-identical to the flat
/// [`cca_core::CorrelationGraph::cost_batch`] column `c` (itself pinned
/// to the serial per-candidate walk) for every shard count at every
/// thread count — including the all-colocated `-0.0` identity column.
#[test]
fn sharded_cost_batch_is_bitwise_flat_batch() {
    Checker::new("sharded_cost_batch_is_bitwise_flat_batch")
        .cases(96)
        .regressions(REGRESSIONS)
        .run(shard_case, |c| {
            let p = build(c);
            let mut batch = PlacementBatch::new(p.num_objects(), p.num_nodes());
            for idx in 0..c.candidates.len() {
                batch.push(&candidate(c, &p, idx));
            }
            // Pin the -0.0 identity column explicitly.
            batch.push(&Placement::new(vec![0; p.num_objects()], p.num_nodes()));
            let flat = p.graph().cost_batch(&batch);
            prop_assert_eq!(flat.last().copied().map(f64::to_bits), Some((-0.0f64).to_bits()));
            for shards in shard_counts(p.num_objects()) {
                let q = sharded(&p, shards);
                for threads in THREADS {
                    let got = q.eval_cost_batch(&batch, threads);
                    prop_assert_eq!(got.len(), flat.len());
                    for (col, (g, f)) in got.iter().zip(&flat).enumerate() {
                        prop_assert_eq!(
                            g.to_bits(),
                            f.to_bits(),
                            "column {col} diverged at {shards} shards / {threads} threads: {g} != {f}"
                        );
                    }
                }
            }
            Ok(())
        });
}

/// With sharding on, the single-copy move deltas — the scalar and
/// every-target replica kernels on the `r = 1` copy set — are the flat
/// row walks to the bit for any shard count, every (object, target)
/// combination of the instance.
#[test]
fn sharded_move_delta_is_bitwise_flat_row_walk() {
    Checker::new("sharded_move_delta_is_bitwise_flat_row_walk")
        .cases(96)
        .regressions(REGRESSIONS)
        .run(shard_case, |c| {
            let p = build(c);
            let rp = ReplicaPlacement::from_primary(candidate(c, &p, 0));
            let graph = p.graph();
            let mut shard_batch = vec![f64::NAN; p.num_nodes()];
            for shards in shard_counts(p.num_objects()) {
                let q = sharded(&p, shards);
                for o in p.objects() {
                    q.eval_replica_move_deltas(&rp, o, 0, &mut shard_batch);
                    for (t, &s) in shard_batch.iter().enumerate() {
                        let f = graph.replica_move_delta(&rp, o, 0, t);
                        prop_assert_eq!(
                            s.to_bits(),
                            f.to_bits(),
                            "move_delta_batch[{t}] of {o:?} diverged at {shards} shards"
                        );
                        prop_assert_eq!(
                            q.eval_replica_move_delta(&rp, o, 0, t).to_bits(),
                            f.to_bits(),
                            "move_delta of {o:?} -> {t} diverged at {shards} shards"
                        );
                    }
                }
            }
            Ok(())
        });
}

/// The `CcaProblem::eval_*` dispatchers with sharding enabled agree with
/// the flat graph to the bit on dyadic instances, and sharding survives
/// `restrict_to` with the same guarantees on the subproblem.
#[test]
fn problem_dispatch_and_restriction_preserve_bits() {
    Checker::new("problem_dispatch_and_restriction_preserve_bits")
        .cases(64)
        .regressions(REGRESSIONS)
        .run(shard_case, |c| {
            let mut p = build(c);
            let pl = candidate(c, &p, 0);
            p.set_sharding(3, 2);
            for threads in THREADS {
                prop_assert_eq!(
                    p.eval_cost(&pl, threads).to_bits(),
                    p.graph().cost(&pl).to_bits()
                );
            }
            // Restrict to a prefix scope; the subproblem keeps sharding
            // and its dispatch still matches its own flat graph.
            let scope: Vec<ObjectId> = p.objects().take(p.num_objects().div_ceil(2)).collect();
            let (sub, _) = p.restrict_to(&scope);
            let sub_sharded = sub.sharded().expect("sharding must survive restrict_to");
            prop_assert_eq!(owned_edges(sub_sharded), sub.pairs().len());
            let sub_pl = Placement::new(
                (0..sub.num_objects() as u32).map(|i| i % sub.num_nodes() as u32).collect(),
                sub.num_nodes(),
            );
            for threads in THREADS {
                prop_assert_eq!(
                    sub.eval_cost(&sub_pl, threads).to_bits(),
                    sub.graph().cost(&sub_pl).to_bits(),
                    "restricted dispatch diverged at {threads} threads"
                );
            }
            Ok(())
        });
}

/// The partition is a pure function of `(pairs, shard_count)`:
/// `set_sharding`'s thread count never changes it, and on the builder's
/// `(a, b)`-sorted pairs each shard owns at most one range, so the
/// partition's memory is a few bytes per shard, independent of the
/// instance size.
#[test]
fn build_threads_never_change_the_view() {
    Checker::new("build_threads_never_change_the_view")
        .cases(64)
        .regressions(REGRESSIONS)
        .run(shard_case, |c| {
            let p = build(c);
            for shards in [2usize, 7] {
                let q = sharded(&p, shards);
                let reference = q.sharded().expect("sharding is on");
                for build_threads in [2usize, 8] {
                    let mut other = p.clone();
                    other.set_sharding(shards, build_threads);
                    prop_assert_eq!(other.sharded(), Some(reference));
                }
                for s in 0..reference.shard_count() {
                    prop_assert!(reference.edge_ranges(s).len() <= 1);
                }
                prop_assert!(
                    reference.memory_bytes()
                        <= reference.shard_count()
                            * (size_of::<Vec<Range<EdgeId>>>() + size_of::<Range<EdgeId>>()),
                    "the partition must not hold per-edge data"
                );
            }
            Ok(())
        });
}

/// Shrinkable random instance with **non-dyadic** weights: correlations
/// in tenths, so a weight such as `0.3 · 7` is not an exact binary
/// fraction and sums of weights depend on how they are associated.
#[derive(Debug, Clone)]
struct TenthsCase {
    objects: usize,
    nodes: usize,
    /// (a, b, correlation tenths in 1..=9, cost in 1..=16)
    pairs: Vec<(usize, usize, u8, u8)>,
    /// Two replica columns; column 0 is also the single-copy candidate.
    columns: Vec<Vec<u8>>,
    /// Salt of the scattered keep order of the restricted subproblem.
    salt: u32,
}

impl Shrink for TenthsCase {
    fn shrink(&self) -> Vec<Self> {
        self.pairs
            .shrink()
            .into_iter()
            .map(|pairs| TenthsCase {
                pairs,
                ..self.clone()
            })
            .collect()
    }
}

fn tenths_case(rng: &mut StdRng) -> TenthsCase {
    let objects = rng.random_range(2usize..40);
    let pairs = gen::vec(rng, 0..objects * 4, |r| {
        (
            r.random_range(0..objects),
            r.random_range(0..objects),
            r.random_range(1u8..=9),  // correlation = tenths/10 — not dyadic
            r.random_range(1u8..=16), // integral cost
        )
    });
    let columns = (0..2)
        .map(|_| (0..objects).map(|_| rng.random_range(0u8..16)).collect())
        .collect();
    TenthsCase {
        objects,
        nodes: rng.random_range(1usize..6),
        pairs,
        columns,
        salt: rng.random(),
    }
}

fn build_tenths(c: &TenthsCase) -> CcaProblem {
    let mut b = CcaProblem::builder();
    let objs: Vec<_> = (0..c.objects)
        .map(|i| b.add_object(format!("o{i}"), 1))
        .collect();
    for &(a, d, tenths, cost) in &c.pairs {
        if a != d {
            b.add_pair(objs[a], objs[d], f64::from(tenths) / 10.0, f64::from(cost))
                .expect("valid pair");
        }
    }
    b.uniform_capacities(c.nodes, c.objects as u64 + 1)
        .build()
        .expect("valid problem")
}

/// The sharded fold contract, written out: shard `s` owns the edges whose
/// smaller endpoint lies in its row block (`ceil(n / shards)` rows per
/// shard, the count clamped to `[1, n]`); each shard adds the weights of
/// its owned split edges in `EdgeId` order from `-0.0`, and the partials
/// are added in shard order from `-0.0`.
fn shard_order_reference(
    p: &CcaProblem,
    shards: usize,
    split: impl Fn(ObjectId, ObjectId) -> bool,
) -> f64 {
    let n = p.num_objects();
    let count = shards.clamp(1, n.max(1));
    let rows = n.div_ceil(count).max(1);
    let mut partials = vec![-0.0f64; count];
    for e in p.graph().edges() {
        if split(e.a, e.b) {
            partials[e.a.min(e.b).index() / rows] += e.weight;
        }
    }
    partials.into_iter().fold(-0.0, |total, x| total + x)
}

/// `eval_cost`, every `eval_cost_batch` column at widths 1 to 4 (with an
/// all-colocated `-0.0` column) and `eval_cost_replicas` at r = 2 of `q`
/// equal [`shard_order_reference`] at `shards` shards, to the bit.
fn folds_match_reference(
    c: &TenthsCase,
    q: &CcaProblem,
    shards: usize,
    threads: usize,
    what: &str,
) -> Result<(), String> {
    let (n, nodes) = (q.num_objects(), q.num_nodes());
    let cols: Vec<Placement> = c
        .columns
        .iter()
        .map(|col| {
            Placement::new(
                col[..n]
                    .iter()
                    .map(|&k| u32::from(k) % nodes as u32)
                    .collect(),
                nodes,
            )
        })
        .collect();
    let at = format!("{what}, {shards} shards, {threads} threads");
    let pl = &cols[0];
    let want = shard_order_reference(q, shards, |a, b| pl.node_of(a) != pl.node_of(b));
    prop_assert_eq!(
        q.eval_cost(pl, threads).to_bits(),
        want.to_bits(),
        "eval_cost diverged from the shard-order reference ({at})"
    );
    // Widths 1..=4 run the batch kernel's fixed-width lanes (1, 2, 4) and
    // its dynamic-width loop (3); column 2 is all-colocated.
    let mut candidates = cols.clone();
    candidates.push(Placement::new(vec![0; n], nodes));
    candidates.push(Placement::new(
        cols[1]
            .as_slice()
            .iter()
            .map(|&k| (k + 1) % nodes as u32)
            .collect(),
        nodes,
    ));
    for width in 1..=candidates.len() {
        let got = q.eval_cost_batch(
            &PlacementBatch::from_placements(&candidates[..width]),
            threads,
        );
        prop_assert_eq!(got.len(), width);
        for (col, (g, cand)) in got.iter().zip(&candidates).enumerate() {
            let want = shard_order_reference(q, shards, |a, b| cand.node_of(a) != cand.node_of(b));
            prop_assert_eq!(
                g.to_bits(),
                want.to_bits(),
                "eval_cost_batch column {col} of {width} diverged ({at})"
            );
        }
        if width > 2 {
            prop_assert_eq!(got[2].to_bits(), (-0.0f64).to_bits());
        }
    }
    let rp = ReplicaPlacement::from_columns(cols);
    let want = shard_order_reference(q, shards, |a, b| rp.split(a, b));
    prop_assert_eq!(
        q.eval_cost_replicas(&rp, threads).to_bits(),
        want.to_bits(),
        "eval_cost_replicas at r = 2 diverged ({at})"
    );
    Ok(())
}

/// What a sharded fold returns on **non-dyadic** weights, where the
/// association of the sum shows in the last bits: every shard count
/// {1, 2, 7, n} at every thread count {1, 2, 8} returns exactly the
/// shard-order reference — on the builder's `(a, b)`-sorted problem, on
/// a `restrict_to` subproblem of a sharded parent (scattered new ids, so
/// a shard's owned edges are not one contiguous run) and on a sharded
/// `prune_pairs` problem (pairs in weight order). Without sharding, the
/// folds are the one-shard reference, i.e. the flat serial walk.
#[test]
fn sharded_folds_equal_the_shard_order_reference_on_non_dyadic_weights() {
    Checker::new("sharded_folds_equal_the_shard_order_reference_on_non_dyadic_weights")
        .cases(48)
        .regressions(REGRESSIONS)
        .run(tenths_case, |c| {
            let p = build_tenths(c);
            let mut keep: Vec<ObjectId> = p.objects().collect();
            keep.sort_by_key(|o| (o.0.wrapping_mul(0x9E37_79B9) ^ c.salt, o.0));
            keep.truncate((2 * p.num_objects()).div_ceil(3));
            for threads in THREADS {
                folds_match_reference(c, &p, 1, threads, "unsharded")?;
                for shards in shard_counts(p.num_objects()) {
                    let mut q = p.clone();
                    q.set_sharding(shards, threads);
                    folds_match_reference(c, &q, shards, threads, "builder order")?;
                    let (sub, _) = q.restrict_to(&keep);
                    folds_match_reference(c, &sub, shards, threads, "restricted")?;
                    q.prune_pairs(p.pairs().len() / 2);
                    folds_match_reference(c, &q, shards, threads, "pruned")?;
                }
            }
            Ok(())
        });
}
