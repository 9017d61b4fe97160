//! Property-based tests of the CCA core: problem/placement invariants,
//! clustering, rounding guarantees, repair, and the exact-oracle sandwich.

use cca_check::{gen, prop_assert, prop_assert_eq, prop_assert_ne, Checker, Rng, Shrink, StdRng};
use cca_core::Strategy as PlacementStrategy;
use cca_core::{
    capacity_bounded_clusters, construct_clustered_vertex, construct_optimal_vertex,
    exact_placement, greedy_placement, improve_in_place, place, random_hash_placement,
    repair_capacity, round_best_of_within, round_once, round_samples, survive_node_loss,
    CcaProblem, ExactOptions, LprrOptions, MigrateOptions, ObjectId, Placement, Resource,
};
use cca_rand::SeedableRng;

const REGRESSIONS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/property.regressions");

/// Shrinkable description of a random CCA instance.
#[derive(Debug, Clone)]
struct RandomCca {
    sizes: Vec<u8>,
    nodes: usize,
    capacity_headroom: u8,
    pairs: Vec<(usize, usize, u8, u8)>, // (a, b, correlation%, cost)
}

impl Shrink for RandomCca {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        // Pairs shrink freely: `build` indexes objects modulo the count and
        // clamps correlation/cost back into the generator's domain.
        for pairs in self.pairs.shrink() {
            out.push(RandomCca {
                pairs,
                ..self.clone()
            });
        }
        // At least one object must survive so modulo indexing stays total.
        for sizes in self.sizes.shrink() {
            if !sizes.is_empty() {
                out.push(RandomCca {
                    sizes,
                    ..self.clone()
                });
            }
        }
        for nodes in self.nodes.shrink() {
            if nodes >= 1 {
                out.push(RandomCca {
                    nodes,
                    ..self.clone()
                });
            }
        }
        for capacity_headroom in self.capacity_headroom.shrink() {
            out.push(RandomCca {
                capacity_headroom,
                ..self.clone()
            });
        }
        out
    }
}

fn random_cca(rng: &mut StdRng) -> RandomCca {
    let t = rng.random_range(2usize..9);
    let sizes = (0..t).map(|_| rng.random_range(1u8..12)).collect();
    let pairs = gen::vec(rng, 0..t * 2, |r| {
        (
            r.random_range(0..t),
            r.random_range(0..t),
            r.random_range(1u8..=100),
            r.random_range(1u8..20),
        )
    });
    RandomCca {
        sizes,
        nodes: rng.random_range(1usize..4),
        capacity_headroom: rng.random_range(0u8..30),
        pairs,
    }
}

fn build(r: &RandomCca) -> CcaProblem {
    let mut b = CcaProblem::builder();
    let objs: Vec<_> = r
        .sizes
        .iter()
        .enumerate()
        // Clamps keep shrunk cases inside the generator's domain
        // (sizes >= 1, correlation in (0, 1], cost >= 1, nodes >= 1).
        .map(|(i, &s)| b.add_object(format!("o{i}"), u64::from(s.max(1))))
        .collect();
    for &(a, c, corr, cost) in &r.pairs {
        let (a, c) = (a % objs.len(), c % objs.len());
        if a != c {
            b.add_pair(
                objs[a],
                objs[c],
                f64::from(corr.max(1)) / 100.0,
                f64::from(cost.max(1)),
            )
            .expect("valid pair");
        }
    }
    let nodes = r.nodes.max(1);
    let total: u64 = r.sizes.iter().map(|&s| u64::from(s.max(1))).sum();
    // Capacity: enough in aggregate, plus some headroom.
    let cap = (total / nodes as u64 + 1) + u64::from(r.capacity_headroom);
    b.uniform_capacities(nodes, cap)
        .build()
        .expect("valid problem")
}

/// Costs are within [0, total weight]; co-locating everything on one
/// node (capacity aside) always yields zero cost.
#[test]
fn cost_bounds() {
    Checker::new("cost_bounds")
        .cases(100)
        .regressions(REGRESSIONS)
        .run(random_cca, |r| {
            let p = build(r);
            let all_zero = Placement::new(vec![0; p.num_objects()], p.num_nodes());
            prop_assert_eq!(all_zero.communication_cost(&p), 0.0);
            let hash = random_hash_placement(&p);
            let cost = hash.communication_cost(&p);
            prop_assert!(cost >= 0.0);
            prop_assert!(cost <= p.total_pair_weight() + 1e-9);
            Ok(())
        });
}

/// The baselines and LPRR always produce complete placements, and any
/// cost they report matches an independent recomputation.
#[test]
fn strategies_produce_consistent_reports() {
    Checker::new("strategies_produce_consistent_reports")
        .cases(100)
        .regressions(REGRESSIONS)
        .run(random_cca, |r| {
            let p = build(r);
            for strategy in [
                PlacementStrategy::RandomHash,
                PlacementStrategy::Greedy,
                PlacementStrategy::lprr(),
            ] {
                if let Ok(report) = place(&p, &strategy) {
                    prop_assert_eq!(report.placement.num_objects(), p.num_objects());
                    let recomputed = report.placement.communication_cost(&p);
                    prop_assert!((report.cost - recomputed).abs() < 1e-9);
                }
            }
            Ok(())
        });
}

/// Clusters partition the objects and respect the size budget (unless
/// a single object already exceeds it).
#[test]
fn clusters_partition_and_fit() {
    Checker::new("clusters_partition_and_fit")
        .cases(100)
        .regressions(REGRESSIONS)
        .run(
            |rng| (random_cca(rng), rng.random_range(1u64..60)),
            |(r, budget)| {
                let budget = (*budget).max(1); // shrinking may drive it to 0
                let p = build(r);
                let clusters = capacity_bounded_clusters(&p, budget);
                let mut seen = vec![false; p.num_objects()];
                for cluster in &clusters {
                    let size: u64 = cluster.iter().map(|&o| p.size(o)).sum();
                    prop_assert!(
                        size <= budget || cluster.len() == 1,
                        "oversized multi-object cluster: {cluster:?} ({size} > {budget})"
                    );
                    for &o in cluster {
                        prop_assert!(!seen[o.index()], "object {o} in two clusters");
                        seen[o.index()] = true;
                    }
                }
                prop_assert!(seen.iter().all(|&s| s), "some object missing from clusters");
                Ok(())
            },
        );
}

/// Both vertex constructions yield stochastic fractional placements
/// whose expected loads respect the capacities, and the degenerate one
/// attains objective 0.
#[test]
fn vertex_constructions_are_feasible() {
    Checker::new("vertex_constructions_are_feasible")
        .cases(100)
        .regressions(REGRESSIONS)
        .run(random_cca, |r| {
            let p = build(r);
            let optimal = construct_optimal_vertex(&p).expect("aggregate capacity suffices");
            prop_assert!(optimal.objective.abs() < 1e-9);
            let clustered = construct_clustered_vertex(&p).expect("aggregate capacity suffices");
            for out in [&optimal, &clustered] {
                prop_assert!(out.fractional.is_stochastic(1e-6));
                for (k, load) in out.fractional.expected_loads(&p).iter().enumerate() {
                    prop_assert!(
                        *load <= p.capacity(k) as f64 + 1e-6,
                        "node {k}: expected load {load} > capacity {}",
                        p.capacity(k)
                    );
                }
            }
            prop_assert!(clustered.objective >= -1e-9);
            prop_assert!(clustered.objective <= p.total_pair_weight() + 1e-9);
            Ok(())
        });
}

/// Rounding an integral fractional placement reproduces it exactly.
#[test]
fn rounding_is_identity_on_integral() {
    Checker::new("rounding_is_identity_on_integral")
        .cases(100)
        .regressions(REGRESSIONS)
        .run(
            |rng| (random_cca(rng), rng.random::<u64>()),
            |(r, seed)| {
                let p = build(r);
                let hash = random_hash_placement(&p);
                let frac =
                    cca_core::FractionalPlacement::from_integral(hash.as_slice(), p.num_nodes());
                let mut rng = StdRng::seed_from_u64(*seed);
                prop_assert_eq!(round_once(&frac, &mut rng), Ok(hash));
                Ok(())
            },
        );
}

/// Repair never breaks completeness and reaches feasibility whenever
/// feasibility is achievable by it (generous aggregate headroom).
#[test]
fn repair_terminates_and_reports() {
    Checker::new("repair_terminates_and_reports")
        .cases(100)
        .regressions(REGRESSIONS)
        .run(random_cca, |r| {
            let p = build(r);
            let mut placement = Placement::new(vec![0; p.num_objects()], p.num_nodes());
            let outcome = repair_capacity(&p, &mut placement, 1.0);
            prop_assert_eq!(placement.num_objects(), p.num_objects());
            if outcome.feasible {
                prop_assert!(placement.within_capacity(&p, 1.0 + 1e-9));
            }
            Ok(())
        });
}

/// Reconcile never exceeds its migration budget and never worsens the
/// model cost under default options.
#[test]
fn reconcile_respects_budget() {
    Checker::new("reconcile_respects_budget")
        .cases(100)
        .regressions(REGRESSIONS)
        .run(
            |rng| (random_cca(rng), rng.random_range(0u64..60)),
            |(r, budget)| {
                let budget = *budget;
                let p = build(r);
                let current = random_hash_placement(&p);
                let desired = greedy_placement(&p);
                let out = cca_core::reconcile(
                    &p,
                    &current,
                    &desired,
                    budget,
                    &cca_core::MigrateOptions::default(),
                );
                prop_assert!(out.migrated_bytes <= budget);
                prop_assert!(out.comm_cost <= current.communication_cost(&p) + 1e-9);
                // migrated bytes equal the size of actually-moved objects.
                let moved: u64 = p
                    .objects()
                    .filter(|&o| out.placement.node_of(o) != current.node_of(o))
                    .map(|o| p.size(o))
                    .sum();
                prop_assert_eq!(moved, out.migrated_bytes);
                Ok(())
            },
        );
}

/// Draining a node (a node loss: zero capacity, repair, polish) empties
/// it or leaves the repair infeasible; on success every other node stays
/// within the slackened capacity.
#[test]
fn drain_empties_node_or_fails() {
    Checker::new("drain_empties_node_or_fails")
        .cases(100)
        .regressions(REGRESSIONS)
        .run(random_cca, |r| {
            let p = build(r);
            if p.num_nodes() < 2 {
                return Ok(());
            }
            let start = greedy_placement(&p);
            if !start.within_all_capacities(&p, 1.0) {
                return Ok(());
            }
            let node = 0usize;
            let (degraded, out, report) = cca_core::survive_node_loss(&p, &start, &[node], 2.0);
            prop_assert_eq!(report.dropped_nodes, vec![node]);
            prop_assert_eq!(report.feasible, out.within_all_capacities(&degraded, 2.0));
            // An infeasible repair means legitimately undrainable: the
            // dead node's zero capacity holds no object.
            if report.feasible {
                for o in p.objects() {
                    prop_assert_ne!(out.node_of(o), node);
                }
                prop_assert!(out.within_all_capacities(&p, 2.0 + 1e-9));
            }
            Ok(())
        });
}

/// A node loss is one repair pass: `survive_node_loss` returns exactly
/// the placement of `repair_capacity` (eviction, then two polish sweeps)
/// followed by `improve_in_place` at the same slack and zero price.
/// Every load is an integer, so both ledgers agree and the second call
/// only continues the first one's sweeps. The generator reaches cases
/// where that second call still moves objects.
#[test]
fn node_loss_is_one_repair_pass() {
    let mut rng = StdRng::seed_from_u64(2008);
    let mut second_polish_moved = 0;
    for case in 0..1200 {
        let t = rng.random_range(2usize..60);
        let n = rng.random_range(2usize..=6);
        // Per-node capacities: 60–300% of an even split of `total`.
        let share = |rng: &mut StdRng, total: u64| {
            (0..n)
                .map(|_| total * rng.random_range(60..=300) / (100 * n as u64) + 1)
                .collect::<Vec<u64>>()
        };
        let sizes: Vec<u64> = (0..t).map(|_| rng.random_range(1..=40)).collect();
        let mut b = CcaProblem::builder();
        let objs: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| b.add_object(format!("o{i}"), s))
            .collect();
        for _ in 0..rng.random_range(t..=3 * t) {
            let (x, y) = (rng.random_range(0..t), rng.random_range(0..t));
            if x != y {
                let r = f64::from(rng.random_range(1u32..=100)) / 100.0;
                let w = f64::from(rng.random_range(1u32..=20));
                b.add_pair(objs[x], objs[y], r, w).expect("valid pair");
            }
        }
        if rng.random_range(0..3) == 0 {
            let demands: Vec<u64> = (0..t).map(|_| rng.random_range(0..=6)).collect();
            let caps = share(&mut rng, demands.iter().sum());
            b.add_resource(Resource::new("bw", demands, caps));
        }
        let capacities = share(&mut rng, sizes.iter().sum());
        let p = b.capacities(capacities).build().expect("valid problem");
        let slack = [1.0, 1.05, 1.3][rng.random_range(0..3)];
        let start = Placement::new((0..t).map(|_| rng.random_range(0..n as u32)).collect(), n);
        let mut dead = Vec::new();
        for _ in 0..rng.random_range(1..n) {
            let k = loop {
                let k = rng.random_range(0..n);
                if !dead.contains(&k) {
                    break k;
                }
            };
            dead.push(k);
        }

        let (degraded, one_pass, report) = survive_node_loss(&p, &start, &dead, slack);
        let alive = (0..n).map(|k| if dead.contains(&k) { 0 } else { p.capacity(k) });
        assert!(
            alive.eq((0..n).map(|k| degraded.capacity(k))),
            "case {case}"
        );
        let mut repaired = start.clone();
        let _ = repair_capacity(&degraded, &mut repaired, slack);
        let options = MigrateOptions {
            capacity_slack: slack,
            ..MigrateOptions::default()
        };
        let two_calls = improve_in_place(&degraded, &repaired, &options);
        assert_eq!(
            one_pass.as_slice(),
            two_calls.placement.as_slice(),
            "case {case}: {t} objects, {n} nodes, dead {dead:?}, slack {slack}"
        );
        assert_eq!(
            report.feasible,
            two_calls.placement.within_all_capacities(&degraded, slack),
            "case {case}"
        );
        if two_calls.moves > 0 {
            second_polish_moved += 1;
        }
    }
    assert!(
        second_polish_moved > 0,
        "no case exercised the second polish"
    );
}

/// Placement persistence round-trips on random problems.
#[test]
fn persistence_round_trips() {
    Checker::new("persistence_round_trips")
        .cases(100)
        .regressions(REGRESSIONS)
        .run(random_cca, |r| {
            let p = build(r);
            let placement = random_hash_placement(&p);
            let text = cca_core::format_placement(&p, &placement);
            let parsed = cca_core::read_placement(text.as_bytes(), &p);
            prop_assert!(parsed.is_ok(), "{:?}", parsed.err().map(|e| e.to_string()));
            prop_assert_eq!(parsed.unwrap(), placement);
            Ok(())
        });
}

/// Sandwich: LP optimum (0) <= exact optimum <= every heuristic's cost,
/// on instances small enough for branch and bound.
#[test]
fn exact_oracle_sandwich() {
    // The exact oracle is exponential; keep the case count low.
    Checker::new("exact_oracle_sandwich")
        .cases(40)
        .regressions(REGRESSIONS)
        .run(random_cca, |r| {
            let p = build(r);
            if p.num_objects() <= 7 && p.num_nodes() <= 3 {
                if let Some((exact, exact_cost)) = exact_placement(&p, &ExactOptions::default()) {
                    prop_assert!(exact.within_capacity(&p, 1.0));
                    prop_assert!(exact_cost >= -1e-12);
                    // Exact is a lower bound for every capacity-feasible
                    // placement the heuristics produce.
                    let greedy = greedy_placement(&p);
                    if greedy.within_capacity(&p, 1.0) {
                        prop_assert!(
                            greedy.communication_cost(&p) >= exact_cost - 1e-9,
                            "greedy {} below exact {exact_cost}",
                            greedy.communication_cost(&p)
                        );
                    }
                    if let Ok(lprr) = place(&p, &PlacementStrategy::lprr()) {
                        if lprr.placement.within_capacity(&p, 1.0) {
                            prop_assert!(
                                lprr.cost >= exact_cost - 1e-9,
                                "lprr {} below exact {exact_cost}",
                                lprr.cost
                            );
                        }
                    }
                }
            }
            Ok(())
        });
}

/// Input hardening: malformed instances are rejected as typed errors,
/// never accepted and never panics.
#[test]
fn builder_rejects_malformed_instances() {
    Checker::new("builder_rejects_malformed_instances")
        .cases(100)
        .regressions(REGRESSIONS)
        .run(random_cca, |r| {
            // Zero-size object: poison one size.
            let mut b = CcaProblem::builder();
            for (i, &s) in r.sizes.iter().enumerate() {
                b.add_object(
                    format!("o{i}"),
                    if i == 0 { 0 } else { u64::from(s.max(1)) },
                );
            }
            let nodes = r.nodes.max(1);
            prop_assert_eq!(
                b.uniform_capacities(nodes, 100).build().unwrap_err(),
                cca_core::ProblemError::ZeroSizeObject(ObjectId(0))
            );

            // All-zero capacities.
            let mut b = CcaProblem::builder();
            b.add_object("a", 1);
            prop_assert_eq!(
                b.uniform_capacities(nodes, 0).build().unwrap_err(),
                cca_core::ProblemError::ZeroCapacity
            );

            // Non-finite and negative pair weights.
            let mut b = CcaProblem::builder();
            let a = b.add_object("a", 1);
            let c = b.add_object("c", 1);
            for (corr, cost) in [
                (f64::NAN, 1.0),
                (1.0, f64::NAN),
                (-0.5, 1.0),
                (1.0, -2.0),
                (f64::INFINITY, 1.0),
            ] {
                prop_assert!(matches!(
                    b.add_pair(a, c, corr, cost),
                    Err(cca_core::ProblemError::InvalidNumber(_))
                ));
            }
            Ok(())
        });
}

/// The degradation ladder always answers: a complete placement that is
/// audit-feasible or explicitly flagged, identically across repeat runs.
#[test]
fn resilient_solve_always_answers() {
    Checker::new("resilient_solve_always_answers")
        .cases(60)
        .regressions(REGRESSIONS)
        .run(random_cca, |r| {
            let p = build(r);
            let opts = cca_core::ResilienceOptions::default();
            let a = cca_core::solve_resilient(&p, &opts);
            prop_assert_eq!(a.placement.num_objects(), p.num_objects());
            prop_assert!(
                a.audit.feasible() || a.report.degraded,
                "unflagged infeasible result: {}",
                a.report.summary()
            );
            let b = cca_core::solve_resilient(&p, &opts);
            prop_assert_eq!(a.placement.as_slice(), b.placement.as_slice());
            prop_assert_eq!(a.report.selected, b.report.selected);
            Ok(())
        });
}

/// Thread-count invariance of the rounding fan-out: for any instance and
/// seed, `round_best_of_within` selects a byte-identical outcome at 1, 2,
/// and 8 threads, and `round_samples` returns the identical sample vector —
/// repetition `i` depends only on `(seed, i)`, never on scheduling.
#[test]
fn rounding_is_thread_count_invariant() {
    Checker::new("rounding_is_thread_count_invariant")
        .cases(60)
        .regressions(REGRESSIONS)
        .run(
            |rng| (random_cca(rng), rng.random::<u64>()),
            |(r, seed)| {
                let p = build(r);
                let vertex = construct_clustered_vertex(&p).expect("aggregate capacity suffices");
                let serial = round_best_of_within(&vertex.fractional, &p, 24, 1.05, None, *seed, 1)
                    .expect("stochastic vertex rounds");
                let serial_samples =
                    round_samples(&vertex.fractional, 24, *seed, 1).expect("samples");
                for threads in [2usize, 8] {
                    let par = round_best_of_within(
                        &vertex.fractional,
                        &p,
                        24,
                        1.05,
                        None,
                        *seed,
                        threads,
                    )
                    .expect("stochastic vertex rounds");
                    prop_assert_eq!(par.placement.as_slice(), serial.placement.as_slice());
                    prop_assert_eq!(par.cost.to_bits(), serial.cost.to_bits());
                    prop_assert_eq!(
                        par.max_load_ratio.to_bits(),
                        serial.max_load_ratio.to_bits()
                    );
                    prop_assert_eq!(par.repetitions, serial.repetitions);
                    prop_assert_eq!(par.within_capacity, serial.within_capacity);
                    let par_samples =
                        round_samples(&vertex.fractional, 24, *seed, threads).expect("samples");
                    prop_assert_eq!(&par_samples, &serial_samples);
                }
                Ok(())
            },
        );
}

/// Thread-count invariance end to end: the full LPRR solve returns the
/// same placement and bit-identical cost for 1, 2, and 8 worker threads.
#[test]
fn lprr_solve_is_thread_count_invariant() {
    Checker::new("lprr_solve_is_thread_count_invariant")
        .cases(40)
        .regressions(REGRESSIONS)
        .run(
            |rng| (random_cca(rng), rng.random::<u64>()),
            |(r, seed)| {
                let p = build(r);
                let opts = |threads| {
                    PlacementStrategy::Lprr(LprrOptions {
                        rng_seed: *seed,
                        threads,
                        ..LprrOptions::default()
                    })
                };
                match place(&p, &opts(1)) {
                    Err(_) => Ok(()), // infeasible LP fails identically at any thread count
                    Ok(serial) => {
                        for threads in [2usize, 8] {
                            let par = place(&p, &opts(threads)).expect("same LP, same outcome");
                            prop_assert_eq!(par.placement.as_slice(), serial.placement.as_slice());
                            prop_assert_eq!(par.cost.to_bits(), serial.cost.to_bits());
                        }
                        Ok(())
                    }
                }
            },
        );
}

/// Lemma 1 at the integration level: rounding the degenerate vertex places
/// each correlation component wholly on one node with the row's
/// probabilities.
#[test]
fn degenerate_vertex_rounds_components_together() {
    let mut b = CcaProblem::builder();
    let o: Vec<_> = (0..4).map(|i| b.add_object(format!("o{i}"), 5)).collect();
    b.add_pair(o[0], o[1], 0.9, 3.0).unwrap();
    b.add_pair(o[2], o[3], 0.9, 3.0).unwrap();
    let p = b.uniform_capacities(2, 20).build().unwrap();
    let out = construct_optimal_vertex(&p).unwrap();
    let mut rng = StdRng::seed_from_u64(33);
    for _ in 0..200 {
        let placement = round_once(&out.fractional, &mut rng).expect("stochastic vertex");
        assert_eq!(placement.node_of(o[0]), placement.node_of(o[1]));
        assert_eq!(placement.node_of(o[2]), placement.node_of(o[3]));
    }
    let _ = ObjectId(0);
}
