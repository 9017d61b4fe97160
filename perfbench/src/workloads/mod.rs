//! The four workloads and the helpers they share.

pub mod live;
pub mod place;
pub mod replicate;
pub mod serve;

use std::hint::black_box;
use std::time::Instant;

use cca::algo::{CcaProblem, ObjectId, PlacementBatch, ReplicaPlacement};
use cca::hashing::md5;
use cca::trace::ZipfInstance;

use crate::spans::Recorder;
use crate::{stats, Metric, THREADS};

/// Per-node capacity as a multiple of the average load: the paper's 2.0.
pub const CAPACITY_FACTOR: f64 = 2.0;

/// Builds the placement problem of a raw Zipf instance: one object per
/// entry, every pair, and `nodes` nodes of [`CAPACITY_FACTOR`] times the
/// average load. Spans: `problem.fill` (the builder calls) and
/// `problem.build` (`CcaProblemBuilder::build`, which builds the CSR).
#[must_use]
pub fn zipf_problem(inst: &ZipfInstance, nodes: usize, rec: &mut Recorder) -> CcaProblem {
    let mut builder = rec.span("problem.fill", |_| {
        let mut b = CcaProblem::builder();
        for (i, &size) in inst.sizes.iter().enumerate() {
            b.add_object(format!("o{i}"), size);
        }
        for p in &inst.pairs {
            b.add_pair(ObjectId(p.a), ObjectId(p.b), p.correlation, p.comm_cost)
                .expect("generator pairs have distinct, in-range endpoints");
        }
        let total: u64 = inst.sizes.iter().sum();
        let capacity = (CAPACITY_FACTOR * total as f64 / nodes as f64).ceil() as u64;
        b.uniform_capacities(nodes, capacity);
        b
    });
    rec.span("problem.build", |_| builder.build())
        .expect("a generator instance is a valid problem")
}

/// Median milliseconds per traced operation of the spans called `name`.
#[must_use]
pub fn span_ms(rec: &Recorder, name: &str) -> f64 {
    stats::median(&rec.per_op_ms(name)).unwrap_or(0.0)
}

/// Median milliseconds of `reps` calls of `f`.
pub fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples).unwrap_or(0.0)
}

/// The graph-kernel metrics on a run's final placement: one cost walk,
/// batches of width 1 and 8 (the placement and seven node rotations of
/// it), the walk's edge rate, and the replica move delta over a sample
/// of objects.
#[must_use]
pub fn graph_kernel_metrics(problem: &CcaProblem, rp: &ReplicaPlacement) -> Vec<Metric> {
    const REPS: usize = 5;
    let placement = rp.primary();
    let n = problem.num_nodes() as u32;
    let cost_ms = time_ms(REPS, || problem.eval_cost(black_box(placement), THREADS));
    let one = PlacementBatch::from_placements(std::slice::from_ref(placement));
    let batch1_ms = time_ms(REPS, || problem.eval_cost_batch(black_box(&one), THREADS));
    let rotations: Vec<_> = (0..8u32)
        .map(|r| {
            let column = placement.as_slice().iter().map(|&k| (k + r) % n).collect();
            cca::algo::Placement::new(column, n as usize)
        })
        .collect();
    let eight = PlacementBatch::from_placements(&rotations);
    let batch8_ms = time_ms(REPS, || problem.eval_cost_batch(black_box(&eight), THREADS));

    let objects = problem.num_objects();
    let step = (objects / 4096).max(1);
    let sample: Vec<ObjectId> = (0..objects)
        .step_by(step)
        .map(|i| ObjectId(i as u32))
        .collect();
    let t = Instant::now();
    for &i in &sample {
        for j in 0..rp.replicas() {
            let target = (rp.node_of(i, j) + 1) % problem.num_nodes();
            black_box(problem.eval_replica_move_delta(rp, i, j, target));
        }
    }
    let delta_ns = t.elapsed().as_secs_f64() * 1e9 / (sample.len() * rp.replicas()) as f64;

    let medges = problem.pairs().len() as f64 / 1e6;
    vec![
        Metric::new("graph.cost_ms", cost_ms, "ms", REPS),
        Metric::new("graph.batch1_ms", batch1_ms, "ms", REPS),
        Metric::new("graph.batch8_ms", batch8_ms, "ms", REPS),
        Metric::new(
            "graph.cost_medges_per_s",
            medges / (cost_ms / 1e3),
            "Medges/s",
            REPS,
        ),
        Metric::new(
            "graph.replica_delta_ns",
            delta_ns,
            "ns",
            sample.len() * rp.replicas(),
        ),
        Metric::new("graph.bytes", problem.graph().memory_bytes() as f64, "B", 1),
        Metric::new(
            "shard.bytes",
            problem.sharded().map_or(0, |s| s.memory_bytes()) as f64,
            "B",
            1,
        ),
    ]
}

/// Milliseconds of `CorrelationGraph::build` on the problem's pairs —
/// the CSR part of `CcaProblemBuilder::build`, timed on its own.
#[must_use]
pub fn graph_build_metric(problem: &CcaProblem) -> Metric {
    let ms = time_ms(1, || {
        cca::algo::CorrelationGraph::build(problem.num_objects(), black_box(problem.pairs()))
    });
    Metric::new("graph.build_ms", ms, "ms", 1)
}

/// The MD5 metrics of hashing every message in `messages` once:
/// total milliseconds and throughput.
#[must_use]
pub fn md5_metrics(messages: &[Vec<u8>]) -> Vec<Metric> {
    let bytes: usize = messages.iter().map(Vec::len).sum();
    let ms = time_ms(3, || {
        for m in messages {
            black_box(md5::digest(black_box(m)));
        }
    });
    vec![
        Metric::new("hashing.digest_ms", ms, "ms", 3),
        Metric::new(
            "hashing.md5_mb_per_s",
            bytes as f64 / 1e6 / (ms / 1e3),
            "MB/s",
            3,
        ),
    ]
}

/// Hex MD5 of a placement's node column, for fingerprints.
#[must_use]
pub fn placement_digest(columns: &[&[u32]]) -> String {
    let mut h = md5::Md5::new();
    for column in columns {
        for k in *column {
            h.update(&k.to_le_bytes());
        }
    }
    md5::Md5::hex(&h.finalize())
}
