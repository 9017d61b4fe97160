//! Statistical verification of the paper's formal results (Lemmas 1–2,
//! Theorems 2–3) on problems derived from the actual search pipeline, plus
//! the NP-hardness artifacts of Theorem 1.

use cca::algo::{
    construct_optimal_vertex, exact_placement, importance_ranking, round_once, round_samples,
    scope_subproblem, solve_relaxation, ExactOptions, ObjectId, RelaxMethod, RelaxOptions,
};
use cca::pipeline::{Pipeline, PipelineConfig};
use cca::trace::TraceConfig;
use cca_rand::rngs::StdRng;
use cca_rand::SeedableRng;

/// A small CCA subproblem carved from the real pipeline, so the theorem
/// checks run against realistic sizes/correlations rather than toys.
fn pipeline_subproblem(objects: usize) -> cca::algo::CcaProblem {
    let mut config = PipelineConfig::new(TraceConfig::tiny(), 3);
    config.seed = 1234;
    let p = Pipeline::build(&config);
    let ranking = importance_ranking(&p.problem);
    let keep: Vec<ObjectId> = ranking.into_iter().take(objects).collect();
    scope_subproblem(&p.problem, &keep, false)
}

/// Lemma 1: after rounding, object `i` is at node `k` with probability
/// `x_{i,k}` — verified empirically on the LP solution of a real
/// subproblem.
#[test]
fn lemma1_rounding_marginals() {
    let sub = pipeline_subproblem(12);
    let out = solve_relaxation(&sub, None, &RelaxOptions::default()).unwrap();
    let n = sub.num_nodes();
    let trials = 4000;
    let mut rng = StdRng::seed_from_u64(1);
    let mut counts = vec![vec![0u32; n]; sub.num_objects()];
    for _ in 0..trials {
        let placement = round_once(&out.fractional, &mut rng).expect("stochastic vertex");
        for o in sub.objects() {
            counts[o.index()][placement.node_of(o)] += 1;
        }
    }
    for o in sub.objects() {
        for (k, &count) in counts[o.index()].iter().enumerate() {
            let emp = f64::from(count) / trials as f64;
            let want = out.fractional.fraction(o, k);
            assert!(
                (emp - want).abs() < 0.035,
                "object {o} node {k}: empirical {emp}, expected {want}"
            );
        }
    }
}

/// Lemma 2: the probability two objects are split is bounded by their
/// split indicator `z_{i,j}`.
#[test]
fn lemma2_split_probability_bound() {
    let sub = pipeline_subproblem(12);
    let out = solve_relaxation(&sub, None, &RelaxOptions::default()).unwrap();
    let trials = 4000;
    let mut rng = StdRng::seed_from_u64(2);
    let mut split_counts = vec![0u32; sub.pairs().len()];
    for _ in 0..trials {
        let placement = round_once(&out.fractional, &mut rng).expect("stochastic vertex");
        for (e, pair) in sub.pairs().iter().enumerate() {
            if placement.node_of(pair.a) != placement.node_of(pair.b) {
                split_counts[e] += 1;
            }
        }
    }
    for (e, pair) in sub.pairs().iter().enumerate() {
        let emp = f64::from(split_counts[e]) / trials as f64;
        let z = out.fractional.split_indicator(pair.a, pair.b);
        assert!(
            emp <= z + 0.035,
            "pair {e}: split rate {emp} exceeds z = {z}"
        );
    }
}

/// Lemma 2 under the parallel rounder, exact form: on two nodes the
/// rounding never splits a pair more than the LP's split indicator says —
/// and in fact the split probability is *exactly* `z_{i,j}` (with two
/// nodes, a pair splits iff the rounding threshold lands in the interval
/// of width `z` between the two objects' cumulative fractions). That
/// upgrades the usual one-sided check to a two-sided 3-sigma binomial
/// test, which we run against the indexed substream fan-out at 8 threads.
#[test]
fn lemma2_exact_on_two_nodes_parallel() {
    let mut config = PipelineConfig::new(TraceConfig::tiny(), 2);
    config.seed = 1234;
    let p = Pipeline::build(&config);
    let ranking = importance_ranking(&p.problem);
    let keep: Vec<ObjectId> = ranking.into_iter().take(10).collect();
    let sub = scope_subproblem(&p.problem, &keep, false);
    let out = solve_relaxation(&sub, None, &RelaxOptions::default()).unwrap();
    let trials = 4000usize;
    let samples = round_samples(&out.fractional, trials, 7, 8).expect("stochastic vertex");
    assert_eq!(samples.len(), trials);
    for pair in sub.pairs() {
        let z = out.fractional.split_indicator(pair.a, pair.b);
        let splits = samples
            .iter()
            .filter(|s| s.node_of(pair.a) != s.node_of(pair.b))
            .count();
        let emp = splits as f64 / trials as f64;
        let sigma = (z * (1.0 - z) / trials as f64).sqrt();
        assert!(
            (emp - z).abs() <= 3.0 * sigma + 1e-9,
            "pair ({}, {}): empirical split rate {emp} vs exact z {z} (sigma {sigma})",
            pair.a,
            pair.b
        );
    }
}

/// Lemmas 1 and 2 hold under the threaded rounder on the 3-node pipeline
/// subproblem, and the sample vector itself is thread-count invariant:
/// repetition `i` is a function of `(seed, i)` alone, so 1, 2, and 8
/// worker threads produce the identical sequence of placements.
#[test]
fn lemmas_hold_under_parallel_rounder() {
    let sub = pipeline_subproblem(12);
    let out = solve_relaxation(&sub, None, &RelaxOptions::default()).unwrap();
    let trials = 2500usize;
    let serial = round_samples(&out.fractional, trials, 9, 1).expect("stochastic vertex");
    for threads in [2usize, 8] {
        let par = round_samples(&out.fractional, trials, 9, threads).expect("stochastic vertex");
        assert_eq!(par, serial, "threads = {threads} diverged from serial");
    }

    // Lemma 1 per substream: each object's marginal matches x_{i,k}. The
    // marginal is exact (Lemma 1), so a two-sided binomial bound applies;
    // 3.5 sigma keeps the 36 simultaneous checks comfortably inside it.
    for o in sub.objects() {
        for k in 0..sub.num_nodes() {
            let want = out.fractional.fraction(o, k);
            let hits = serial.iter().filter(|s| s.node_of(o) == k).count();
            let emp = hits as f64 / trials as f64;
            let sigma = (want * (1.0 - want) / trials as f64).sqrt();
            assert!(
                (emp - want).abs() <= 3.5 * sigma + 1e-9,
                "object {o} node {k}: empirical {emp}, expected {want} (sigma {sigma})"
            );
        }
    }

    // Lemma 2, one-sided on >= 2 nodes: split rate <= z + 3 sigma.
    for pair in sub.pairs() {
        let z = out.fractional.split_indicator(pair.a, pair.b);
        let splits = serial
            .iter()
            .filter(|s| s.node_of(pair.a) != s.node_of(pair.b))
            .count();
        let emp = splits as f64 / trials as f64;
        let sigma = (z * (1.0 - z) / trials as f64).sqrt();
        assert!(
            emp <= z + 3.0 * sigma + 1e-9,
            "pair ({}, {}): split rate {emp} exceeds z {z} + 3 sigma",
            pair.a,
            pair.b
        );
    }
}

/// Theorem 2: the expected communication cost of the rounded placement
/// equals the fractional solution's objective — for the degenerate
/// LP-optimal vertex that objective is 0 and indeed no pair ever splits;
/// for the clustered vertex the empirical mean matches the reported
/// expected cost.
#[test]
fn theorem2_expected_cost() {
    let sub = pipeline_subproblem(12);

    // Degenerate LP optimum: exactly zero cost on every rounding.
    let degen = construct_optimal_vertex(&sub).unwrap();
    assert!(degen.objective.abs() < 1e-9);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..500 {
        let placement = round_once(&degen.fractional, &mut rng).expect("stochastic vertex");
        assert_eq!(placement.communication_cost(&sub), 0.0);
    }

    // Clustered vertex: empirical mean tracks the reported expectation.
    let clustered = solve_relaxation(&sub, None, &RelaxOptions::default()).unwrap();
    let trials = 4000;
    let total: f64 = (0..trials)
        .map(|_| {
            round_once(&clustered.fractional, &mut rng)
                .expect("stochastic vertex")
                .communication_cost(&sub)
        })
        .sum();
    let emp = total / f64::from(trials);
    let spread = 0.05 * (1.0 + sub.total_pair_weight());
    assert!(
        (emp - clustered.objective).abs() < spread,
        "empirical {emp} vs expected {}",
        clustered.objective
    );
}

/// Theorem 3: expected per-node loads stay within the capacities.
#[test]
fn theorem3_expected_loads() {
    let sub = pipeline_subproblem(12);
    for method in [
        RelaxMethod::ClusteredVertex,
        RelaxMethod::CombinatorialVertex,
    ] {
        let out = solve_relaxation(
            &sub,
            None,
            &RelaxOptions {
                method,
                ..RelaxOptions::default()
            },
        )
        .unwrap();
        let trials = 3000;
        let mut rng = StdRng::seed_from_u64(4);
        let mut sums = vec![0.0f64; sub.num_nodes()];
        for _ in 0..trials {
            let placement = round_once(&out.fractional, &mut rng).expect("stochastic vertex");
            for (k, load) in placement.loads(&sub).iter().enumerate() {
                sums[k] += *load as f64;
            }
        }
        for (k, sum) in sums.iter().enumerate() {
            let mean = sum / f64::from(trials);
            let cap = sub.capacity(k) as f64;
            assert!(
                mean <= cap * 1.02 + 1.0,
                "{method:?}: node {k} mean load {mean} vs capacity {cap}"
            );
        }
    }
}

/// Theorem 1 artifact: the CCA problem embeds minimum multiway cut. Build
/// the paper's reduction instance — n oversized "terminal" objects that
/// must be bijectively placed — and check the exact solver finds the
/// minimum 3-way cut.
#[test]
fn theorem1_multiway_cut_embedding() {
    // Terminals t0,t1,t2 of size 6 on 3 nodes of capacity 10 (6 > 10/2, so
    // no two terminals share a node); small objects of total size <= 4
    // place freely.
    let mut b = cca::algo::CcaProblem::builder();
    let t0 = b.add_object("t0", 6);
    let t1 = b.add_object("t1", 6);
    let t2 = b.add_object("t2", 6);
    let u = b.add_object("u", 1);
    let v = b.add_object("v", 1);
    // Edge weights of the multiway-cut instance (r = 1, w = weight).
    b.add_pair(t0, u, 1.0, 5.0).unwrap();
    b.add_pair(t1, u, 1.0, 2.0).unwrap();
    b.add_pair(t2, u, 1.0, 1.0).unwrap();
    b.add_pair(t1, v, 1.0, 4.0).unwrap();
    b.add_pair(t2, v, 1.0, 3.0).unwrap();
    b.add_pair(u, v, 1.0, 1.0).unwrap();
    let p = b.uniform_capacities(3, 10).build().unwrap();

    let (placement, cost) = exact_placement(&p, &ExactOptions::default()).unwrap();
    // Terminals end up on three distinct nodes (the capacity argument of
    // the NP-hardness proof).
    let nodes: std::collections::HashSet<_> =
        [t0, t1, t2].iter().map(|&t| placement.node_of(t)).collect();
    assert_eq!(nodes.len(), 3, "terminals must be bijective to nodes");
    // Optimal cut: u joins t0 (cut 2+1+? u-v), v joins t1 (cut 3+1) —
    // enumerate: u with t0, v with t1: cost = t1u(2)+t2u(1)+t2v(3)+uv(1) = 7;
    // u with t0, v with t2: 2+1+4+1 = 8; u,v with t0: 2+1+4+3 = 10;
    // u with t1, v with t1: 5+1+3 = 9; u t1 v t2: 5+1+4+1 = 11; ...
    assert!(
        (cost - 7.0).abs() < 1e-9,
        "minimum 3-way cut is 7, got {cost}"
    );
    assert_eq!(placement.node_of(u), placement.node_of(t0));
    assert_eq!(placement.node_of(v), placement.node_of(t1));
}

/// The relaxation methods agree with the literal Figure-4 LP on a real
/// (small) subproblem.
#[test]
fn relaxation_methods_agree_on_pipeline_subproblem() {
    let sub = pipeline_subproblem(9);
    let fig4 = cca::algo::figure4::Figure4Lp::build(&sub)
        .solve(&Default::default())
        .unwrap();
    let cp = solve_relaxation(
        &sub,
        None,
        &RelaxOptions {
            method: RelaxMethod::CuttingPlane,
            ..RelaxOptions::default()
        },
    )
    .unwrap();
    let vx = construct_optimal_vertex(&sub).unwrap();
    assert!(cp.converged);
    assert!(
        (fig4.1 - cp.objective).abs() < 1e-5 * (1.0 + fig4.1.abs()),
        "figure4 {} vs cutting-plane {}",
        fig4.1,
        cp.objective
    );
    assert!(
        (fig4.1 - vx.objective).abs() < 1e-5 * (1.0 + fig4.1.abs()),
        "figure4 {} vs combinatorial vertex {}",
        fig4.1,
        vx.objective
    );
}
