//! Shard-invariance property battery for [`cca_core::ShardedGraph`]
//! (DESIGN.md §11), exercised through the `CcaProblem::eval_*` folds
//! with sharding on.
//!
//! Every equality here is **exact** (`==` on raw `f64` bits), not
//! epsilon-tolerant. The generator draws dyadic weights (correlations in
//! eighths), non-dyadic ones (tenths) and reals across several
//! magnitudes, whose raw sums depend on how they are associated. The
//! graph snaps every weight to its quantum, so every sum is exact: for
//! **any** shard count {1, 2, 7, n} (n the object count) at **any**
//! thread count {1, 2, 8}, the sharded folds must return the flat folds'
//! bits, on builder-order, `restrict_to` and `prune_pairs` problems alike.

use cca_check::{gen, prop_assert, prop_assert_eq, Checker, Rng, Shrink, StdRng};
use cca_core::{CcaProblem, ObjectId, Placement, PlacementBatch, ReplicaPlacement, ShardedGraph};

const REGRESSIONS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/shard_properties.regressions"
);

/// Shrinkable description of a random CCA instance plus a batch of
/// candidate placements over it.
#[derive(Debug, Clone)]
struct ShardCase {
    sizes: Vec<u8>,
    nodes: usize,
    /// (a, b, correlation, cost): eighths × integers, tenths × integers,
    /// or reals across magnitudes, one kind per case.
    pairs: Vec<(usize, usize, f64, f64)>,
    /// Candidate assignments, each reduced modulo `nodes`.
    candidates: Vec<Vec<u8>>,
    /// Salt of the scattered keep order of the restricted subproblem.
    salt: u32,
}

impl Shrink for ShardCase {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for pairs in self.pairs.shrink() {
            out.push(ShardCase {
                pairs,
                ..self.clone()
            });
        }
        // Drop whole candidates only: each must keep one entry per object.
        for keep in 2..self.candidates.len() {
            out.push(ShardCase {
                candidates: self.candidates[..keep].to_vec(),
                ..self.clone()
            });
        }
        for nodes in self.nodes.shrink() {
            if nodes >= 1 {
                out.push(ShardCase {
                    nodes,
                    ..self.clone()
                });
            }
        }
        out
    }
}

fn shard_case(rng: &mut StdRng) -> ShardCase {
    let t = rng.random_range(2usize..14);
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
    let k = rng.random_range(2usize..7);
    let candidates = (0..k)
        .map(|_| (0..t).map(|_| rng.random_range(0u8..16)).collect())
        .collect();
    ShardCase {
        sizes,
        nodes,
        pairs,
        candidates,
        salt: rng.random(),
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

/// Candidate `idx` over the first `p.num_objects()` objects.
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

/// The shard/thread axes to sweep: shard counts with the object count
/// substituted at run time (the largest count, often past the edge count,
/// so trailing slices are empty), crossed with the thread battery.
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

/// `q` as built, restricted to a scattered two thirds of its objects
/// (new ids out of the parent's order), and pruned to half its pairs
/// (weight order): each carries `q`'s sharding.
fn variants(c: &ShardCase, q: &CcaProblem) -> [(&'static str, CcaProblem); 3] {
    let mut keep: Vec<ObjectId> = q.objects().collect();
    keep.sort_by_key(|o| (o.0.wrapping_mul(0x9E37_79B9) ^ c.salt, o.0));
    keep.truncate((2 * q.num_objects()).div_ceil(3));
    let (restricted, _) = q.restrict_to(&keep);
    let mut pruned = q.clone();
    pruned.prune_pairs(q.pairs().len() / 2);
    [
        ("builder order", q.clone()),
        ("restricted", restricted),
        ("pruned", pruned),
    ]
}

/// The sharded `eval_cost` and `eval_cost_replicas` (r = 2) are
/// bit-identical to the flat serial folds for every shard count at every
/// thread count, on builder-order, restricted and pruned problems.
#[test]
fn sharded_cost_is_bitwise_flat_cost() {
    Checker::new("sharded_cost_is_bitwise_flat_cost")
        .cases(96)
        .regressions(REGRESSIONS)
        .run(shard_case, |c| {
            let p = build(c);
            for shards in shard_counts(p.num_objects()) {
                let q = sharded(&p, shards);
                let sg = q.sharded().expect("sharding is on");
                prop_assert_eq!(sg.shard_count(), shards.clamp(1, p.num_objects()));
                for (what, v) in variants(c, &q) {
                    let pl = candidate(c, &v, 0);
                    let rp = ReplicaPlacement::from_columns(vec![pl.clone(), candidate(c, &v, 1)]);
                    let (flat, flat_r2) = (v.graph().cost(&pl), v.graph().cost_replicas(&rp));
                    for threads in THREADS {
                        let at = format!("{what}, {shards} shards, {threads} threads");
                        let got = v.eval_cost(&pl, threads);
                        prop_assert_eq!(
                            got.to_bits(),
                            flat.to_bits(),
                            "cost diverged ({at}): {got} != {flat}"
                        );
                        let got = v.eval_cost_replicas(&rp, threads);
                        prop_assert_eq!(
                            got.to_bits(),
                            flat_r2.to_bits(),
                            "r = 2 cost diverged ({at}): {got} != {flat_r2}"
                        );
                    }
                }
            }
            Ok(())
        });
}

/// The sharded `eval_cost_batch` column `c` is bit-identical to the flat
/// [`cca_core::CorrelationGraph::cost_batch`] column `c`, itself the
/// serial per-candidate walk, at every width from 1 to k + 1 (the batch
/// kernel's fixed-width lanes and its dynamic-width loop), for every
/// shard count at every thread count — including the all-colocated
/// `-0.0` identity column, on builder-order, restricted and pruned
/// problems.
#[test]
fn sharded_cost_batch_is_bitwise_flat_batch() {
    Checker::new("sharded_cost_batch_is_bitwise_flat_batch")
        .cases(64)
        .regressions(REGRESSIONS)
        .run(shard_case, |c| {
            let p = build(c);
            for shards in shard_counts(p.num_objects()) {
                for (what, v) in variants(c, &sharded(&p, shards)) {
                    let mut candidates: Vec<Placement> = (0..c.candidates.len())
                        .map(|idx| candidate(c, &v, idx))
                        .collect();
                    candidates.push(Placement::new(vec![0; v.num_objects()], v.num_nodes()));
                    for width in 1..=candidates.len() {
                        let batch = PlacementBatch::from_placements(&candidates[..width]);
                        let flat = v.graph().cost_batch(&batch);
                        for (col, (f, cand)) in flat.iter().zip(&candidates).enumerate() {
                            prop_assert_eq!(
                                f.to_bits(),
                                v.graph().cost(cand).to_bits(),
                                "flat column {col} of {width} is not the serial walk ({what})"
                            );
                        }
                        for threads in THREADS {
                            let got = v.eval_cost_batch(&batch, threads);
                            prop_assert_eq!(got.len(), width);
                            for (col, (g, f)) in got.iter().zip(&flat).enumerate() {
                                prop_assert_eq!(
                                    g.to_bits(),
                                    f.to_bits(),
                                    "column {col} of {width} diverged ({what}, {shards} \
                                     shards, {threads} threads): {g} != {f}"
                                );
                            }
                        }
                    }
                    let all_home = v.eval_cost_batch(
                        &PlacementBatch::from_placements(&candidates[candidates.len() - 1..]),
                        2,
                    );
                    prop_assert_eq!(all_home[0].to_bits(), (-0.0f64).to_bits());
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

/// Sharding survives `restrict_to` and `prune_pairs`, and a sharded
/// subproblem is the unsharded one's twin: the same edge weights, bit
/// for bit, so the same costs at every thread count.
#[test]
fn problem_dispatch_and_restriction_preserve_bits() {
    Checker::new("problem_dispatch_and_restriction_preserve_bits")
        .cases(64)
        .regressions(REGRESSIONS)
        .run(shard_case, |c| {
            let p = build(c);
            let mut q = p.clone();
            q.set_sharding(3, 2);
            for ((what, flat), (_, shard)) in variants(c, &p).into_iter().zip(variants(c, &q)) {
                prop_assert!(flat.sharded().is_none());
                prop_assert!(shard.sharded().is_some(), "{what} lost its sharding");
                let bits = |g: &CcaProblem| -> Vec<u64> {
                    g.graph().edges().map(|e| e.weight.to_bits()).collect()
                };
                prop_assert_eq!(bits(&flat), bits(&shard));
                let pl = candidate(c, &flat, 0);
                for threads in THREADS {
                    prop_assert_eq!(
                        shard.eval_cost(&pl, threads).to_bits(),
                        flat.eval_cost(&pl, threads).to_bits(),
                        "{what} dispatch diverged at {threads} threads"
                    );
                }
            }
            Ok(())
        });
}

/// The view is a pure function of `(graph, shard_count)`: `set_sharding`'s
/// thread count never changes it, and it holds no per-edge or per-shard
/// data, so its memory is the same for every instance and shard count.
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
                prop_assert_eq!(reference.memory_bytes(), size_of::<ShardedGraph>());
            }
            Ok(())
        });
}
