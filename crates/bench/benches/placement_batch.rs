//! Batched placement-evaluation microbench — one CSR edge walk scoring
//! `k` candidate columns vs `k` independent serial cost scans.
//!
//! [`cca_core::CorrelationGraph::cost_batch`] amortises the CSR edge
//! arrays (endpoints + weights) across every candidate in a
//! [`cca_core::PlacementBatch`]: the edge stream is read **once** per
//! batch instead of once per candidate, while each candidate column still
//! receives exactly its serial fold sequence, so every score stays
//! bit-identical to the per-candidate walk. This bench measures that
//! amortisation for batch widths 1, 4 and 16 on the 10 000-object
//! Zipf-correlated instance and asserts the headline contract: **at
//! k = 16 the batched walk is at least 2× faster than 16 independent
//! scans.**
//!
//! Besides the TSV table it writes `BENCH_batch.json` (override the path
//! with `CCA_BENCH_OUT`).

use cca::algo::{random_hash_placement, CcaProblem, ObjectId, Placement, PlacementBatch};
use cca_bench::{header, quick_mode, BENCH_SEED};
use cca_rand::rngs::StdRng;
use cca_rand::{Rng, SeedableRng};
use cca_trace::zipf::Zipf;
use std::hint::black_box;
use std::time::Instant;

/// The ≥2× floor the k = 16 batched-vs-independent comparison must clear.
const BATCH_SPEEDUP_FLOOR: f64 = 2.0;

/// Batch widths under measurement; the contract is stated over the last.
const WIDTHS: [usize; 3] = [1, 4, 16];

/// The 10k-object Zipf instance: sizes and pair endpoints drawn from the
/// trace crate's Zipf sampler, ~5 pairs per object, dyadic correlations —
/// the same instance `placement_graph` states its contract over.
fn zipf_instance(objects: usize, nodes: usize) -> CcaProblem {
    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    let size_dist = Zipf::new(4096, 1.0);
    let endpoint_dist = Zipf::new(objects, 0.8);
    let mut b = CcaProblem::builder();
    let ids: Vec<ObjectId> = (0..objects)
        .map(|i| b.add_object(format!("z{i}"), 1 + size_dist.sample(&mut rng) as u64))
        .collect();
    let mut edges = 0usize;
    while edges < objects * 5 {
        let a = endpoint_dist.sample(&mut rng);
        let c = rng.random_range(0..objects);
        if a == c {
            continue;
        }
        let corr = f64::from(rng.random_range(1u32..=8)) / 8.0;
        b.add_pair(ids[a], ids[c], corr, 16.0).expect("valid pair");
        edges += 1;
    }
    b.uniform_capacities(nodes, u64::MAX / (2 * nodes as u64))
        .build()
        .expect("valid problem")
}

struct WidthResult {
    k: usize,
    scans_ms: f64,
    batch_ms: f64,
    bit_identical: bool,
}

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

fn run_width(problem: &CcaProblem, k: usize, iters: usize) -> WidthResult {
    let placement = random_hash_placement(problem);
    let graph = problem.graph();
    let n = problem.num_nodes();

    // k + 1 node-relabelled copies of the placement: two overlapping
    // windows of k candidates alternate between iterations so neither
    // side's scan is loop-invariant, exactly as in `placement_graph`.
    let rotated: Vec<Placement> = (0..k + 1)
        .map(|r| {
            Placement::new(
                placement
                    .as_slice()
                    .iter()
                    .map(|&j| (j + r as u32) % n as u32)
                    .collect(),
                n,
            )
        })
        .collect();
    let windows: [&[Placement]; 2] = [&rotated[..k], &rotated[1..]];
    let batches: Vec<PlacementBatch> = windows
        .iter()
        .map(|w| PlacementBatch::from_placements(w))
        .collect();

    // Column i of the batched walk must carry the bits of the serial scan.
    let bit_identical = windows.iter().zip(&batches).all(|(w, batch)| {
        graph
            .cost_batch(batch)
            .iter()
            .zip(w.iter())
            .all(|(c, pl)| c.to_bits() == graph.cost(pl).to_bits())
    });
    assert!(
        bit_identical,
        "k = {k}: batch columns diverged from serial scans"
    );

    let (scans_ms, scan_sum) = best_of(3, || {
        let mut acc = 0.0f64;
        for it in 0..iters {
            for pl in windows[it % 2] {
                acc = black_box(acc + black_box(graph).cost(pl));
            }
        }
        acc
    });
    let (batch_ms, batch_sum) = best_of(3, || {
        let mut acc = 0.0f64;
        for it in 0..iters {
            for c in black_box(graph).cost_batch(&batches[it % 2]) {
                acc = black_box(acc + c);
            }
        }
        acc
    });
    // Same per-candidate bits folded in the same order: the accumulators
    // must agree exactly.
    assert_eq!(
        scan_sum.to_bits(),
        batch_sum.to_bits(),
        "k = {k}: accumulated sums diverged ({scan_sum} vs {batch_sum})"
    );

    WidthResult {
        k,
        scans_ms,
        batch_ms,
        bit_identical,
    }
}

fn write_json(problem: &CcaProblem, results: &[WidthResult], path: &str) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"placement_batch\",\n");
    out.push_str(&format!("  \"seed\": {BENCH_SEED},\n"));
    out.push_str(&format!(
        "  \"batch_speedup_floor\": {BATCH_SPEEDUP_FLOOR},\n"
    ));
    out.push_str(&format!("  \"quick\": {},\n", quick_mode()));
    out.push_str(&format!(
        "  \"instance\": {{\"name\": \"zipf-10k\", \"objects\": {}, \"edges\": {}}},\n",
        problem.num_objects(),
        problem.pairs().len()
    ));
    out.push_str("  \"widths\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"k\": {}, \"scans_ms\": {:.3}, \"batch_ms\": {:.3}, \
             \"speedup\": {:.3}, \"bit_identical\": {}}}{}\n",
            r.k,
            r.scans_ms,
            r.batch_ms,
            r.scans_ms / r.batch_ms,
            r.bit_identical,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote batch baseline to {path}");
}

fn main() {
    println!("# batched cost evaluation: one CSR walk scoring k candidates");
    let iters = if quick_mode() { 10 } else { 50 };

    // The contract instance runs at full size even in quick mode.
    let zipf = zipf_instance(10_000, 32);
    let results: Vec<WidthResult> = WIDTHS.iter().map(|&k| run_width(&zipf, k, iters)).collect();

    header(
        "batch vs independent scans",
        &["k", "scans_ms", "batch_ms", "speedup"],
    );
    for r in &results {
        println!(
            "{}\t{:.3}\t{:.3}\t{:.3}",
            r.k,
            r.scans_ms,
            r.batch_ms,
            r.scans_ms / r.batch_ms
        );
    }

    let wide = results.last().expect("widths are non-empty");
    let speedup = wide.scans_ms / wide.batch_ms;
    assert!(
        speedup >= BATCH_SPEEDUP_FLOOR,
        "batched evaluation speedup {speedup:.2}x at k = {} is below the \
         {BATCH_SPEEDUP_FLOOR}x contract",
        wide.k
    );
    println!();
    println!(
        "# zipf-10k k={} batch speedup: {speedup:.1}x (contract: >= {BATCH_SPEEDUP_FLOOR}x)",
        wide.k
    );

    let path = cca_bench::output_path("batch");
    write_json(&zipf, &results, &path);
}
