//! CSR graph microbench — dense pair-scan vs CSR cost evaluation and
//! O(deg) move deltas.
//!
//! The canonical [`cca_core::CorrelationGraph`] promises two speedups over
//! the historic dense pair list: cost evaluation walks a cache-friendly
//! CSR edge array instead of a `Vec<Pair>` of AoS records, and move
//! deltas cost O(deg(i)) instead of an O(|E|) full rescan (the delta rows
//! time `eval_replica_move_delta` on the `r = 1` copy set, the kernel
//! every single-copy mover runs). This bench
//! measures both on the Figure-5/Figure-7 pipeline instances plus a
//! 10 000-object Zipf-correlated instance built from `cca-trace`'s
//! sampler, and asserts the headline contract: **move deltas on the 10k
//! Zipf instance are at least 5× faster than full rescans.**
//!
//! Besides the TSV table it writes `BENCH_graph.json` (override the path
//! with `CCA_BENCH_OUT`).

use cca::algo::{random_hash_placement, CcaProblem, ObjectId, Pair, Placement, ReplicaPlacement};
use cca_bench::{bench_pipeline, header, quick_mode, BENCH_SEED};
use cca_rand::rngs::StdRng;
use cca_rand::{Rng, SeedableRng};
use cca_trace::zipf::Zipf;
use std::hint::black_box;
use std::time::Instant;

/// The ≥5× floor the 10k-Zipf move-delta comparison must clear.
const MOVE_DELTA_SPEEDUP_FLOOR: f64 = 5.0;

/// The historic dense evaluation: one full scan of an AoS pair list.
fn scan_cost(pairs: &[Pair], placement: &Placement) -> f64 {
    pairs
        .iter()
        .filter(|p| placement.node_of(p.a) != placement.node_of(p.b))
        .map(|p| p.weight())
        .sum()
}

/// The 10k-object Zipf instance: sizes and pair endpoints drawn from the
/// trace crate's Zipf sampler, ~5 pairs per object, dyadic correlations.
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
        // Dyadic correlations (eighths) keep delta sums exactly
        // representable, so the equivalence checks below can be strict.
        let corr = f64::from(rng.random_range(1u32..=8)) / 8.0;
        b.add_pair(ids[a], ids[c], corr, 16.0).expect("valid pair");
        edges += 1;
    }
    // Generous capacities — this instance exercises cost kernels, not
    // the capacity machinery.
    b.uniform_capacities(nodes, u64::MAX / (2 * nodes as u64))
        .build()
        .expect("valid problem")
}

struct CostEval {
    dense_ms: f64,
    csr_ms: f64,
    bit_identical: bool,
}

struct MoveDelta {
    moves: usize,
    rescan_ms: f64,
    csr_ms: f64,
}

struct InstanceResult {
    name: String,
    objects: usize,
    edges: usize,
    cost_eval: CostEval,
    move_delta: MoveDelta,
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

fn run_instance(
    name: &str,
    problem: &CcaProblem,
    eval_iters: usize,
    moves: usize,
) -> InstanceResult {
    let placement = random_hash_placement(problem);
    let graph = problem.graph();
    // The dense list carries each edge's snapped weight (`r = weight`,
    // `w = 1`), so the scan and the CSR walk sum the same weights.
    let pairs: Vec<Pair> = graph
        .edges()
        .map(|e| Pair {
            a: e.a,
            b: e.b,
            correlation: e.weight,
            comm_cost: 1.0,
        })
        .collect();

    // Cost evaluation: dense AoS scan vs CSR edge-array walk. Both fold
    // in pair order, so the results must agree to the bit.
    // Cycle through node-relabelled copies of the placement so no scan is
    // loop-invariant (the in-crate dense scan is otherwise folded to a
    // single evaluation while the cross-crate CSR call is not), and feed
    // the accumulator through `black_box` every iteration. Relabelling
    // nodes preserves the split structure, so every copy has the same
    // cost and the two sums stay comparable to the bit.
    let n = problem.num_nodes();
    let rotated: Vec<Placement> = (0..8)
        .map(|r| {
            Placement::new(
                placement
                    .as_slice()
                    .iter()
                    .map(|&k| (k + r) % n as u32)
                    .collect(),
                n,
            )
        })
        .collect();
    let (dense_ms, dense_sum) = best_of(3, || {
        let mut acc = 0.0f64;
        for it in 0..eval_iters {
            acc = black_box(acc + scan_cost(black_box(&pairs), &rotated[it % rotated.len()]));
        }
        acc
    });
    let (csr_ms, csr_sum) = best_of(3, || {
        let mut acc = 0.0f64;
        for it in 0..eval_iters {
            acc = black_box(acc + black_box(graph).cost(&rotated[it % rotated.len()]));
        }
        acc
    });
    let bit_identical = dense_sum.to_bits() == csr_sum.to_bits();
    assert!(
        bit_identical,
        "{name}: CSR cost diverged from the dense scan ({csr_sum} vs {dense_sum})"
    );

    // Move deltas: O(|E|) full rescan per move vs O(deg) CSR row walk,
    // over the same deterministic move script.
    let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x5eed);
    let script: Vec<(ObjectId, usize)> = (0..moves)
        .map(|_| {
            (
                ObjectId(rng.random_range(0..problem.num_objects()) as u32),
                rng.random_range(0..problem.num_nodes()),
            )
        })
        .collect();
    let base = scan_cost(&pairs, &placement);
    let (rescan_ms, rescan_sum) = best_of(3, || {
        let mut acc = 0.0f64;
        let mut moved = placement.clone();
        for &(o, k) in &script {
            let src = moved.node_of(o);
            moved.assign(o, k);
            acc += scan_cost(black_box(&pairs), black_box(&moved)) - base;
            moved.assign(o, src);
        }
        acc
    });
    let rp = ReplicaPlacement::from_primary(placement.clone());
    let (csr_delta_ms, csr_delta_sum) = best_of(3, || {
        let mut acc = 0.0f64;
        for &(o, k) in &script {
            acc += black_box(problem).eval_replica_move_delta(black_box(&rp), o, 0, k);
        }
        acc
    });
    assert!(
        (rescan_sum - csr_delta_sum).abs() <= 1e-9 * (1.0 + rescan_sum.abs()),
        "{name}: delta sums diverged (rescan {rescan_sum} vs CSR {csr_delta_sum})"
    );

    InstanceResult {
        name: name.to_string(),
        objects: problem.num_objects(),
        edges: problem.pairs().len(),
        cost_eval: CostEval {
            dense_ms,
            csr_ms,
            bit_identical,
        },
        move_delta: MoveDelta {
            moves,
            rescan_ms,
            csr_ms: csr_delta_ms,
        },
    }
}

/// Minimal JSON escaping for the identifiers this bench emits.
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn write_json(results: &[InstanceResult], path: &str) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"placement_graph\",\n");
    out.push_str(&format!("  \"seed\": {BENCH_SEED},\n"));
    out.push_str(&format!(
        "  \"move_delta_speedup_floor\": {MOVE_DELTA_SPEEDUP_FLOOR},\n"
    ));
    out.push_str(&format!("  \"quick\": {},\n", quick_mode()));
    out.push_str("  \"instances\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": {},\n", json_str(&r.name)));
        out.push_str(&format!("      \"objects\": {},\n", r.objects));
        out.push_str(&format!("      \"edges\": {},\n", r.edges));
        out.push_str(&format!(
            "      \"cost_eval\": {{\"dense_ms\": {:.3}, \"csr_ms\": {:.3}, \
             \"speedup\": {:.3}, \"bit_identical\": {}}},\n",
            r.cost_eval.dense_ms,
            r.cost_eval.csr_ms,
            r.cost_eval.dense_ms / r.cost_eval.csr_ms,
            r.cost_eval.bit_identical
        ));
        out.push_str(&format!(
            "      \"move_delta\": {{\"moves\": {}, \"rescan_ms\": {:.3}, \
             \"csr_ms\": {:.3}, \"speedup\": {:.3}}}\n",
            r.move_delta.moves,
            r.move_delta.rescan_ms,
            r.move_delta.csr_ms,
            r.move_delta.rescan_ms / r.move_delta.csr_ms
        ));
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote graph baseline to {path}");
}

fn main() {
    println!("# CSR graph baseline: dense pair scans vs CSR walks");
    let (eval_iters, moves) = if quick_mode() { (20, 64) } else { (200, 512) };

    let mut results = Vec::new();
    let fig5 = bench_pipeline(10);
    results.push(run_instance(
        "fig5-pipeline",
        &fig5.problem,
        eval_iters,
        moves,
    ));
    let fig7 = bench_pipeline(40);
    results.push(run_instance(
        "fig7-pipeline",
        &fig7.problem,
        eval_iters,
        moves,
    ));
    // The 10k Zipf instance runs at full size even in quick mode — it is
    // the instance the ≥5× contract is stated over.
    let zipf = zipf_instance(10_000, 32);
    results.push(run_instance("zipf-10k", &zipf, eval_iters.min(50), moves));

    header(
        "graph vs dense scans",
        &[
            "instance",
            "objects",
            "edges",
            "cost_speedup",
            "delta_speedup",
        ],
    );
    for r in &results {
        println!(
            "{}\t{}\t{}\t{:.3}\t{:.3}",
            r.name,
            r.objects,
            r.edges,
            r.cost_eval.dense_ms / r.cost_eval.csr_ms,
            r.move_delta.rescan_ms / r.move_delta.csr_ms
        );
    }

    let zipf_result = results.iter().find(|r| r.name == "zipf-10k").expect("ran");
    let delta_speedup = zipf_result.move_delta.rescan_ms / zipf_result.move_delta.csr_ms;
    assert!(
        delta_speedup >= MOVE_DELTA_SPEEDUP_FLOOR,
        "move-delta speedup {delta_speedup:.2}x on zipf-10k is below the \
         {MOVE_DELTA_SPEEDUP_FLOOR}x contract"
    );
    println!();
    println!(
        "# zipf-10k move-delta speedup: {delta_speedup:.1}x (contract: >= {MOVE_DELTA_SPEEDUP_FLOOR}x)"
    );

    let path = cca_bench::output_path("graph");
    write_json(&results, &path);
}
