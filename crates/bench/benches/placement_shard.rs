//! Sharded-CSR bench at the million-object scale — the headline artifact
//! for the range-sharded graph view (DESIGN.md §11).
//!
//! The instance is `cca_trace::zipf_instance`'s 10⁶-object / 10⁷-edge
//! Zipf table (50k / 500k in quick mode), with its pairs sorted by
//! `(a, b)` as `CcaProblemBuilder::build` stores them. The bench
//! measures, on it:
//!
//! * flat [`cca_core::CorrelationGraph`] build time and resident bytes;
//! * [`cca_core::ShardedGraph`] partition time and resident bytes for
//!   shard counts {1, 2, 7}, and the number of EdgeId ranges the shards
//!   own (one per non-empty shard on `(a, b)`-sorted pairs);
//! * `cost` and 8-wide `cost_batch` evaluation time for every
//!   (shards, threads) combination, threads {1, 2}, vs. the flat serial
//!   walks, **hard-asserting bit identity** for each — the instance's
//!   dyadic weights (multiples of ⅛ × integral costs) make every
//!   reduction shape exact, so shard/thread invariance is `==` on raw
//!   bits, not a tolerance;
//! * the `> 2²⁴`-node **wide (f64) interleave regime**: a batch over
//!   `2²⁴ + 1` nodes scored by flat and sharded walks must agree to the
//!   bit, proving the fallback is a tested regime at generator scale;
//! * the same measurements on **fragmented partitions**: the pairs in
//!   the generator's draw order, where the owners alternate along the
//!   edge list and each shard owns many short ranges — the shape
//!   `restrict_to` (unsorted keep list) and `prune_pairs` (weight order)
//!   leave behind.
//!
//! No speedup floor is asserted here — shard-parallel wins need cores
//! and this bench must also hold on single-core hosts; the committed
//! throughput numbers are gated by `scripts/check.sh baseline` instead.
//! Besides the TSV table it writes `BENCH_shard.json` (override the path
//! with `CCA_BENCH_OUT`).

use cca::algo::{
    CorrelationGraph, ObjectId, Pair, Placement, PlacementBatch, ShardedGraph,
};
use cca_bench::{header, quick_mode, BENCH_SEED};
use cca_rand::rngs::StdRng;
use cca_rand::{Rng, SeedableRng};
use cca_trace::zipf_instance;
use std::hint::black_box;
use std::time::Instant;

/// Shard counts under measurement (the ISSUE's required set).
const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

/// Thread counts swept for build and evaluation.
const THREAD_COUNTS: [usize; 2] = [1, 2];

/// Candidate width of the batched-evaluation measurement.
const BATCH_K: usize = 8;

/// Evaluation nodes (narrow f32 interleave regime).
const NODES: usize = 64;

fn best_of<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..runs {
        let t = Instant::now();
        let v = f();
        best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1e3);
        last = Some(v);
    }
    (best_ms, last.expect("runs >= 1"))
}

struct ShardResult {
    shards: usize,
    threads: usize,
    build_ms: f64,
    cost_ms: f64,
    batch_ms: f64,
    memory_bytes: usize,
    ranges: usize,
    bits_match: bool,
}

/// Flat serial walks over one edge order of the instance.
struct FlatResult {
    build_ms: f64,
    cost_ms: f64,
    batch_ms: f64,
    memory_bytes: usize,
}

/// Builds the flat CSR over `pairs` and times its serial `cost` and
/// `cost_batch`; returns the graph and the flat results to compare
/// against.
fn measure_flat(
    objects: usize,
    pairs: &[Pair],
    builds: usize,
    placement: &Placement,
    batch: &PlacementBatch,
) -> (CorrelationGraph, FlatResult, f64, Vec<f64>) {
    let (build_ms, graph) = best_of(builds, || CorrelationGraph::build(objects, pairs));
    let (cost_ms, cost) = best_of(3, || black_box(&graph).cost(placement));
    let (batch_ms, costs) = best_of(2, || black_box(&graph).cost_batch(batch));
    let flat = FlatResult {
        build_ms,
        cost_ms,
        batch_ms,
        memory_bytes: graph.memory_bytes(),
    };
    println!("flat\t-\t{build_ms:.1}\t{cost_ms:.2}\t{batch_ms:.2}\t-\t-");
    (graph, flat, cost, costs)
}

/// Partitions `graph` for every shard count and times the sharded folds
/// at every thread count, asserting each result bit-equals the flat
/// `flat_cost` / `flat_batch`.
fn measure_sharded(
    graph: &CorrelationGraph,
    shard_counts: &[usize],
    placement: &Placement,
    batch: &PlacementBatch,
    flat_cost: f64,
    flat_batch: &[f64],
) -> Vec<ShardResult> {
    let mut results = Vec::new();
    for &shards in shard_counts {
        // The partition is one sequential pass: no thread axis.
        let (build_ms, sg) = best_of(2, || ShardedGraph::build(graph, shards));
        let ranges = (0..sg.shard_count()).map(|s| sg.edge_ranges(s).len()).sum();
        for threads in THREAD_COUNTS {
            let (cost_ms, s_cost) = best_of(3, || black_box(&sg).cost(graph, placement, threads));
            let (batch_ms, s_batch) =
                best_of(2, || black_box(&sg).cost_batch(graph, batch, threads));

            let cost_match = s_cost.to_bits() == flat_cost.to_bits();
            let batch_match = s_batch.len() == flat_batch.len()
                && s_batch
                    .iter()
                    .zip(flat_batch)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            let bits_match = cost_match && batch_match;
            assert!(
                bits_match,
                "{shards} shards / {threads} threads diverged from the flat CSR \
                 (cost {cost_match}, batch {batch_match})"
            );
            println!(
                "{shards}\t{threads}\t{build_ms:.1}\t{cost_ms:.2}\t{batch_ms:.2}\t{ranges}\t{bits_match}"
            );
            results.push(ShardResult {
                shards,
                threads,
                build_ms,
                cost_ms,
                batch_ms,
                memory_bytes: sg.memory_bytes(),
                ranges,
                bits_match,
            });
        }
    }
    results
}

fn flat_json(f: &FlatResult, medges: f64) -> String {
    format!(
        "{{\"build_ms\": {:.3}, \"cost_ms\": {:.3}, \"cost_batch_ms\": {:.3}, \"k\": {BATCH_K}, \
         \"memory_bytes\": {}, \"build_medges_per_s\": {:.3}, \"eval_medges_per_s\": {:.3}}}",
        f.build_ms,
        f.cost_ms,
        f.batch_ms,
        f.memory_bytes,
        medges / (f.build_ms / 1e3),
        medges / (f.cost_ms / 1e3)
    )
}

fn sharded_json(results: &[ShardResult], medges: f64) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"shards\": {}, \"threads\": {}, \"build_ms\": {:.3}, \"cost_ms\": {:.3}, \
                 \"cost_batch_ms\": {:.3}, \"memory_bytes\": {}, \"ranges\": {}, \
                 \"bits_match\": {}, \"build_medges_per_s\": {:.3}, \"eval_medges_per_s\": {:.3}}}",
                r.shards,
                r.threads,
                r.build_ms,
                r.cost_ms,
                r.batch_ms,
                r.memory_bytes,
                r.ranges,
                r.bits_match,
                medges / (r.build_ms / 1e3),
                medges / (r.cost_ms / 1e3),
            )
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    objects: usize,
    edges: usize,
    instance_bytes: usize,
    flat: &FlatResult,
    results: &[ShardResult],
    wide_nodes: usize,
    wide_bits_match: bool,
    fragmented_flat: &FlatResult,
    fragmented: &[ShardResult],
    path: &str,
) {
    let medges = edges as f64 / 1e6;
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"placement_shard\",\n");
    out.push_str(&format!("  \"seed\": {BENCH_SEED},\n"));
    out.push_str(&format!("  \"quick\": {},\n", quick_mode()));
    out.push_str(&format!(
        "  \"instance\": {{\"name\": \"zipf-1m\", \"objects\": {objects}, \"edges\": {edges}, \
         \"skew\": 0.8, \"raw_bytes\": {instance_bytes}}},\n"
    ));
    out.push_str(&format!("  \"flat\": {},\n", flat_json(flat, medges)));
    out.push_str(&format!(
        "  \"sharded\": {},\n",
        sharded_json(results, medges)
    ));
    out.push_str(&format!(
        "  \"wide_interleave\": {{\"num_nodes\": {wide_nodes}, \"bits_match\": {wide_bits_match}}},\n"
    ));
    out.push_str(&format!(
        "  \"fragmented_flat\": {},\n",
        flat_json(fragmented_flat, medges)
    ));
    out.push_str(&format!(
        "  \"fragmented_sharded\": {}\n",
        sharded_json(fragmented, medges)
    ));
    out.push_str("}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote shard baseline to {path}");
}

fn main() {
    println!("# sharded CSR at the million-object scale");
    let (objects, edges) = if quick_mode() {
        (50_000, 500_000)
    } else {
        (1_000_000, 10_000_000)
    };

    let t = Instant::now();
    let inst = zipf_instance(objects, edges, 0.8, BENCH_SEED);
    let gen_s = t.elapsed().as_secs_f64();
    let instance_bytes = inst.memory_bytes();
    eprintln!(
        "generated {objects} objects / {edges} pairs in {gen_s:.1}s \
         ({:.0} MiB raw)",
        instance_bytes as f64 / (1024.0 * 1024.0)
    );
    // The generator's draw order.
    let draw_order = || -> Vec<Pair> {
        inst.pairs
            .iter()
            .map(|p| Pair {
                a: ObjectId(p.a),
                b: ObjectId(p.b),
                correlation: p.correlation,
                comm_cost: p.comm_cost,
            })
            .collect()
    };
    // The problem builder's storage order.
    let mut pairs = draw_order();
    pairs.sort_unstable_by_key(|p| (p.a, p.b));

    let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x5a4d);
    let placement = Placement::new(
        (0..objects).map(|_| rng.random_range(0..NODES as u32)).collect(),
        NODES,
    );
    // BATCH_K node-relabelled copies so no column is trivially equal.
    let rotated: Vec<Placement> = (0..BATCH_K)
        .map(|r| {
            Placement::new(
                placement
                    .as_slice()
                    .iter()
                    .map(|&j| (j + r as u32) % NODES as u32)
                    .collect(),
                NODES,
            )
        })
        .collect();
    let batch = PlacementBatch::from_placements(&rotated);

    let columns = [
        "shards", "threads", "build_ms", "cost_ms", "batch_ms", "ranges", "bits",
    ];
    header("sharded vs flat CSR, (a, b)-sorted pairs", &columns);
    let (graph, flat, flat_cost, flat_batch) = measure_flat(objects, &pairs, 2, &placement, &batch);
    drop(pairs);
    let results = measure_sharded(
        &graph,
        &SHARD_COUNTS,
        &placement,
        &batch,
        flat_cost,
        &flat_batch,
    );

    // Wide-interleave regime: > 2^24 nodes forces the f64 layout; flat
    // and sharded batched walks must still agree to the bit.
    let wide_nodes = (1usize << 24) + 1;
    let wide_batch = {
        let mut b = PlacementBatch::new(objects, wide_nodes);
        for _ in 0..4 {
            b.push(&Placement::new(
                (0..objects)
                    .map(|_| rng.random_range(0..wide_nodes as u32))
                    .collect(),
                wide_nodes,
            ));
        }
        b
    };
    let wide_flat = graph.cost_batch(&wide_batch);
    let wide_sharded = ShardedGraph::build(&graph, 7).cost_batch(&graph, &wide_batch, 2);
    let wide_bits_match = wide_flat
        .iter()
        .zip(&wide_sharded)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        wide_bits_match,
        "wide (f64) interleave regime diverged between flat and sharded walks"
    );
    println!();
    println!("# wide interleave at {wide_nodes} nodes: bits_match {wide_bits_match}");
    drop((graph, wide_batch));

    // Fragmented partitions: the same instance in draw order, so every
    // shard's edges are scattered over the whole edge list (one shard
    // is always one range, so it is not measured again).
    header("sharded vs flat CSR, draw-order pairs", &columns);
    let (graph, fragmented_flat, flat_cost, flat_batch) =
        measure_flat(objects, &draw_order(), 1, &placement, &batch);
    let fragmented = measure_sharded(
        &graph,
        &SHARD_COUNTS[1..],
        &placement,
        &batch,
        flat_cost,
        &flat_batch,
    );

    let path = std::env::var("CCA_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json").to_string()
    });
    write_json(
        objects,
        edges,
        instance_bytes,
        &flat,
        &results,
        wide_nodes,
        wide_bits_match,
        &fragmented_flat,
        &fragmented,
        &path,
    );
}
