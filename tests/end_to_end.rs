//! End-to-end integration tests: workload → index → CCA problem →
//! placement → trace replay, exercising every public layer together.

use cca::algo::{LprrOptions, Strategy};
use cca::pipeline::{CorrelationMode, Evaluation, Pipeline, PipelineConfig};
use cca::search::{AggregationPolicy, QueryEngine};
use cca::trace::{DriftConfig, TraceConfig};
use cca_rand::rngs::StdRng;
use cca_rand::SeedableRng;

fn pipeline(seed: u64, nodes: usize) -> Pipeline {
    let mut config = PipelineConfig::new(TraceConfig::small(), nodes);
    config.seed = seed;
    Pipeline::build(&config)
}

fn norm(e: &Evaluation, base: &Evaluation) -> f64 {
    e.replay.total_bytes as f64 / base.replay.total_bytes as f64
}

/// The paper's headline ordering holds on replayed bytes:
/// LPRR < greedy < random, with meaningful margins.
#[test]
fn strategy_ordering_on_replayed_traffic() {
    let p = pipeline(2008, 10);
    let scope = 400;
    let random = p.evaluate(&Strategy::RandomHash, None).unwrap();
    let greedy = p.evaluate(&Strategy::Greedy, Some(scope)).unwrap();
    let lprr = p.evaluate(&Strategy::lprr(), Some(scope)).unwrap();

    assert!(random.replay.total_bytes > 0);
    let g = norm(&greedy, &random);
    let l = norm(&lprr, &random);
    assert!(g < 0.95, "greedy should save something, got {g}");
    assert!(l < g, "lprr ({l}) should beat greedy ({g})");
    assert!(
        l < 0.75,
        "lprr should save at least 25% on this workload, got {l}"
    );
    // More locally-computable queries under correlation-aware placement.
    assert!(lprr.replay.local_fraction() > random.replay.local_fraction());
}

/// Widening the optimization scope only improves LPRR (modulo small
/// rounding noise), and scope zero equals pure hashing.
#[test]
fn scope_monotonicity() {
    let p = pipeline(7, 10);
    let random = p.evaluate(&Strategy::RandomHash, None).unwrap();
    let zero = p.evaluate(&Strategy::lprr(), Some(0)).unwrap();
    assert_eq!(zero.replay.total_bytes, random.replay.total_bytes);

    let narrow = p.evaluate(&Strategy::lprr(), Some(100)).unwrap();
    let wide = p.evaluate(&Strategy::lprr(), Some(600)).unwrap();
    let (n, w) = (norm(&narrow, &random), norm(&wide, &random));
    assert!(
        w < n + 0.03,
        "wider scope should not be meaningfully worse: narrow {n}, wide {w}"
    );
}

/// Everything is deterministic for fixed seeds: the whole evaluation
/// reproduces byte-for-byte.
#[test]
fn end_to_end_determinism() {
    let a = pipeline(99, 6);
    let b = pipeline(99, 6);
    for strategy in [Strategy::RandomHash, Strategy::Greedy, Strategy::lprr()] {
        let ea = a.evaluate(&strategy, Some(200)).unwrap();
        let eb = b.evaluate(&strategy, Some(200)).unwrap();
        assert_eq!(ea.replay.total_bytes, eb.replay.total_bytes);
        assert_eq!(ea.report.placement, eb.report.placement);
    }
}

/// The model-level objective and the replayed bytes tell the same story:
/// the measured savings are at least half of the model-predicted savings
/// (the model ignores >2-keyword residual traffic, so it overestimates).
#[test]
fn model_predicts_measurement() {
    let p = pipeline(11, 8);
    let random = p.evaluate(&Strategy::RandomHash, None).unwrap();
    let lprr = p.evaluate(&Strategy::lprr(), Some(400)).unwrap();
    let model_saving = 1.0 - lprr.report.cost / random.report.cost;
    let measured_saving = 1.0 - norm(&lprr, &random);
    assert!(model_saving > 0.0);
    assert!(
        measured_saving > 0.4 * model_saving,
        "model saving {model_saving}, measured {measured_saving}"
    );
}

/// January's placement keeps most of its benefit on a drifted February
/// log — the stability premise of the whole approach.
#[test]
fn placement_survives_month_of_drift() {
    let p = pipeline(42, 10);
    let mut rng = StdRng::seed_from_u64(4242);
    let feb_model = p
        .workload
        .model
        .drifted(DriftConfig::paper_calibrated(), &mut rng);
    let feb_log = feb_model.sample_log(p.workload.queries.len(), &mut rng);

    let random = p.place(&Strategy::RandomHash, None).unwrap();
    let lprr = p.place(&Strategy::lprr(), Some(400)).unwrap();

    let replay = |placement, log| {
        let cluster = p.cluster_for(placement);
        QueryEngine::new(&p.index, &cluster, AggregationPolicy::Intersection).replay(log)
    };
    let jan_saving = 1.0
        - replay(&lprr.placement, &p.workload.queries).total_bytes as f64
            / replay(&random.placement, &p.workload.queries).total_bytes as f64;
    let feb_saving = 1.0
        - replay(&lprr.placement, &feb_log).total_bytes as f64
            / replay(&random.placement, &feb_log).total_bytes as f64;
    assert!(jan_saving > 0.2, "jan saving {jan_saving}");
    assert!(
        feb_saving > 0.75 * jan_saving,
        "feb saving {feb_saving} eroded too much from jan {jan_saving}"
    );
}

/// The two-smallest correlation adjustment (§3.2) beats the plain
/// all-pairs estimate on intersection workloads.
#[test]
fn two_smallest_adjustment_helps() {
    let mut base_cfg = PipelineConfig::new(TraceConfig::small(), 10);
    base_cfg.seed = 3;
    let scope = 400;

    base_cfg.correlation = CorrelationMode::TwoSmallest;
    let p_two = Pipeline::build(&base_cfg);
    base_cfg.correlation = CorrelationMode::AllPairs;
    let p_all = Pipeline::build(&base_cfg);

    let r_two = p_two.evaluate(&Strategy::RandomHash, None).unwrap();
    let r_all = p_all.evaluate(&Strategy::RandomHash, None).unwrap();
    let l_two = p_two.evaluate(&Strategy::lprr(), Some(scope)).unwrap();
    let l_all = p_all.evaluate(&Strategy::lprr(), Some(scope)).unwrap();
    let n_two = norm(&l_two, &r_two);
    let n_all = norm(&l_all, &r_all);
    assert!(
        n_two <= n_all + 0.02,
        "two-smallest {n_two} should not lose to all-pairs {n_all}"
    );
}

/// Union-mode pipeline: largest-rest correlations with union replay
/// still favour correlation-aware placement.
#[test]
fn union_mode_pipeline() {
    let mut config = PipelineConfig::new(TraceConfig::small(), 8);
    config.seed = 31;
    config.correlation = cca::pipeline::CorrelationMode::LargestRest;
    config.aggregation = AggregationPolicy::Union;
    let p = Pipeline::build(&config);
    assert!(!p.problem.pairs().is_empty());
    let random = p.evaluate(&Strategy::RandomHash, None).unwrap();
    let lprr = p.evaluate(&Strategy::lprr(), Some(300)).unwrap();
    assert!(random.replay.total_bytes > 0);
    assert!(
        lprr.replay.total_bytes < random.replay.total_bytes,
        "union-mode lprr {} should beat random {}",
        lprr.replay.total_bytes,
        random.replay.total_bytes
    );
}

/// Tighter capacity slack trades communication for balance.
#[test]
fn slack_trades_cost_for_balance() {
    let p = pipeline(5, 10);
    let tight = LprrOptions {
        capacity_slack: 1.0,
        ..LprrOptions::default()
    };
    let loose = LprrOptions {
        capacity_slack: 1.5,
        ..LprrOptions::default()
    };
    let t = p.evaluate(&Strategy::Lprr(tight), Some(300)).unwrap();
    let l = p.evaluate(&Strategy::Lprr(loose), Some(300)).unwrap();
    // Loose slack can only help (or tie) the communication cost.
    assert!(l.report.cost <= t.report.cost + 1e-9);
}

/// Node-count scaling: random placement's traffic grows with node count
/// (the (n-1)/n effect the paper describes) and LPRR keeps winning.
#[test]
fn node_scaling_effects() {
    let mut p = pipeline(21, 5);
    let r5 = p.evaluate(&Strategy::RandomHash, None).unwrap();
    p.renode(25).unwrap();
    let r25 = p.evaluate(&Strategy::RandomHash, None).unwrap();
    assert!(
        r25.replay.total_bytes > r5.replay.total_bytes,
        "random traffic should grow with node count"
    );
    let l25 = p.evaluate(&Strategy::lprr(), Some(300)).unwrap();
    assert!(l25.replay.total_bytes < r25.replay.total_bytes);
}
