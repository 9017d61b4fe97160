//! Micro-benchmarks of the placement substrate: rounding, baselines,
//! repair, index intersection, trace replay throughput, and the dense
//! against the sparse simplex.

use cca::algo::{
    construct_clustered_vertex, greedy_placement, random_hash_placement, round_once, Strategy,
};
use cca::hashing::md5;
use cca::lp::{Model, Relation, SolverOptions};
use cca::search::{AggregationPolicy, InvertedIndex, QueryEngine};
use cca_bench::timing::{self, Throughput};
use cca_bench::{quick_pipeline, BENCH_SEED};
use cca_rand::rngs::StdRng;
use cca_rand::{Rng, SeedableRng};

/// A random dense-ish LP for solver micro-benchmarks.
fn random_lp(vars: usize, rows: usize, seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Model::minimize();
    let xs: Vec<_> = (0..vars)
        .map(|i| m.add_var(format!("x{i}"), 1.0 + rng.random::<f64>()))
        .collect();
    for r in 0..rows {
        let row = m.add_constraint(
            format!("r{r}"),
            Relation::Ge,
            1.0 + rng.random::<f64>() * 4.0,
        );
        for &x in &xs {
            if rng.random::<f64>() < 0.3 {
                m.set_coeff(row, x, rng.random::<f64>() * 2.0);
            }
        }
    }
    m
}

fn main() {
    let pipeline = quick_pipeline(10);
    let problem = &pipeline.problem;

    {
        let mut group = timing::group("placement").sample_size(10);
        group.bench("random_hash", || random_hash_placement(problem));
        group.bench("greedy", || greedy_placement(problem));
        group.bench("clustered_vertex", || {
            construct_clustered_vertex(problem).expect("feasible")
        });
        let vertex = construct_clustered_vertex(problem).expect("feasible");
        let mut rng = StdRng::seed_from_u64(BENCH_SEED);
        group.bench("round_once", || {
            round_once(&vertex.fractional, &mut rng).expect("stochastic vertex")
        });
        group.finish();
    }

    {
        let mut group = timing::group("search").sample_size(10);
        let words: Vec<_> = pipeline.index.keywords().take(3).collect();
        group.bench("intersect_3_keywords", || {
            pipeline.index.intersect_keywords(&words)
        });
        let report = pipeline
            .place(&Strategy::RandomHash, None)
            .expect("random placement");
        let cluster = pipeline.cluster_for(&report.placement);
        let engine = QueryEngine::new(&pipeline.index, &cluster, AggregationPolicy::Intersection);
        group.throughput(Throughput::Elements(pipeline.workload.queries.len() as u64));
        group.bench("replay_query_log", || {
            engine.replay(&pipeline.workload.queries)
        });
        group.finish();
    }

    {
        let mut group = timing::group("migration").sample_size(10);
        let current = random_hash_placement(problem);
        let desired = greedy_placement(problem);
        group.bench("reconcile_unbudgeted", || {
            cca::algo::reconcile(
                problem,
                &current,
                &desired,
                u64::MAX,
                &cca::algo::MigrateOptions::default(),
            )
        });
        group.finish();
    }

    {
        let mut group = timing::group("hashing").sample_size(10);
        let data = vec![0xabu8; 4096];
        group.throughput(Throughput::Bytes(data.len() as u64));
        group.bench("md5_4k", || md5::digest(&data));
        group.finish();
    }

    {
        let mut group = timing::group("lp_solvers").sample_size(10);
        for &(vars, rows) in &[(20usize, 15usize), (60, 40), (150, 100)] {
            let model = random_lp(vars, rows, 99);
            // Skip dense on the largest size to keep bench time sane.
            if vars <= 60 {
                group.bench(&format!("dense_simplex/{vars}x{rows}"), || {
                    model.solve_dense().expect("solvable")
                });
            }
            group.bench(&format!("sparse_revised_simplex/{vars}x{rows}"), || {
                model.solve(&SolverOptions::default()).expect("solvable")
            });
        }
        group.finish();
    }

    let _ = InvertedIndex::default(); // keep the import obviously used
}
