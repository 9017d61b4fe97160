//! Heavyweight stress tests, `#[ignore]`d by default. Run with
//! `cargo test --release -- --ignored` to exercise paper-scale inputs.

use cca::algo::{RelaxMethod, RelaxOptions, Strategy};
use cca::lp::{validate_solution, Model, Relation, SolverOptions};
use cca::pipeline::{Pipeline, PipelineConfig};
use cca::trace::TraceConfig;
use cca_rand::rngs::StdRng;
use cca_rand::{Rng, SeedableRng};

/// The full paper-scaled pipeline: 25k keywords, 200k queries, all three
/// strategies, strict ordering. Takes ~30 s in release mode.
#[test]
#[ignore = "paper-scale; run with --ignored --release"]
fn paper_scale_pipeline_ordering() {
    let mut config = PipelineConfig::new(TraceConfig::paper_scaled(), 10);
    config.seed = 1;
    let p = Pipeline::build(&config);
    let random = p.evaluate(&Strategy::RandomHash, None).unwrap();
    let greedy = p.evaluate(&Strategy::Greedy, Some(1000)).unwrap();
    let lprr = p.evaluate(&Strategy::lprr(), Some(1000)).unwrap();
    assert!(lprr.replay.total_bytes < greedy.replay.total_bytes);
    assert!(greedy.replay.total_bytes < random.replay.total_bytes);
    // The paper's headline: large savings over random hashing.
    let norm = lprr.replay.total_bytes as f64 / random.replay.total_bytes as f64;
    assert!(norm < 0.55, "lprr normalised cost {norm}");
}

/// A 400-variable, 250-row random sparse LP solved by the revised simplex
/// and validated from first principles.
#[test]
#[ignore = "slow; run with --ignored --release"]
fn large_random_lp_solves_and_validates() {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut m = Model::minimize();
    let vars: Vec<_> = (0..400)
        .map(|i| m.add_var(format!("x{i}"), 0.5 + rng.random::<f64>()))
        .collect();
    for r in 0..250 {
        let row = m.add_constraint(
            format!("r{r}"),
            Relation::Ge,
            1.0 + rng.random::<f64>() * 3.0,
        );
        for &v in &vars {
            if rng.random::<f64>() < 0.05 {
                m.set_coeff(row, v, 0.1 + rng.random::<f64>());
            }
        }
    }
    let sol = m.solve(&SolverOptions::default()).expect("solvable");
    assert!(sol.objective > 0.0);
    assert!(validate_solution(&m, &sol).is_empty());
}

/// The cutting-plane relaxation converges (to the degenerate 0 optimum)
/// on a real scoped subproblem when given enough rounds.
#[test]
#[ignore = "slow; run with --ignored --release"]
fn cutting_plane_converges_on_pipeline_subproblem() {
    let mut config = PipelineConfig::new(TraceConfig::small(), 6);
    config.seed = 9;
    let p = Pipeline::build(&config);
    let ranking = cca::algo::importance_ranking(&p.problem);
    let keep: Vec<_> = ranking.into_iter().take(60).collect();
    let sub = cca::algo::scope_subproblem(&p.problem, &keep, false);
    let out = cca::algo::solve_relaxation(
        &sub,
        None,
        &RelaxOptions {
            method: RelaxMethod::CuttingPlane,
            max_rounds: 200,
            ..RelaxOptions::default()
        },
    )
    .expect("solves");
    assert!(out.converged, "rounds: {}, cuts: {}", out.rounds, out.cuts);
    assert!(out.objective.abs() < 1e-5, "objective {}", out.objective);
}

/// MD5 throughput sanity over a large buffer (streaming equals one-shot).
#[test]
#[ignore = "slow; run with --ignored --release"]
fn md5_large_buffer() {
    let data: Vec<u8> = (0..8_000_000u32).map(|i| (i % 251) as u8).collect();
    let whole = cca::hashing::md5::digest(&data);
    let mut h = cca::hashing::md5::Md5::new();
    for chunk in data.chunks(65_521) {
        h.update(chunk);
    }
    assert_eq!(h.finalize(), whole);
}
