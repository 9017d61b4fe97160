//! Replica battery (DESIGN.md §15): the replica-aware kernels must be a
//! strict generalization of the single-copy code, and the spread
//! invariant must survive every operation that rewrites a placement.
//!
//! Three contracts, each over randomized cases with shrinking:
//!
//! 1. **r=1 bit-identity** — with one copy and a flat tree,
//!    `eval_cost_replicas` / `eval_replica_move_delta` return the same
//!    bits as `eval_cost` / `eval_move_delta` for every thread count in
//!    {1, 2, 8} and shard count in {unsharded, 1, 2, 7};
//! 2. **spread preservation** — `spread_copies`,
//!    `improve_replicas_in_place` and `repair_replica_spread` all leave
//!    no two copies of an object in one leaf domain (whenever enough
//!    alive domains remain);
//! 3. **domain-kill chaos** — `survive_domain_loss` evacuates every
//!    copy off the dead domain deterministically, and the repaired
//!    placement still serves reads end to end (served > 0, counters
//!    partition the offered stream);
//! 4. **batched replica deltas** — `eval_replica_move_deltas` bit-equals
//!    the scalar `eval_replica_move_delta` for every node, r ∈ {1, 2, 3}
//!    and every shard count, also with two copies of an object on one
//!    node; and the polish built on it (`improve_replicas_in_place`,
//!    `survive_domain_loss`) matches a per-target reference loop over
//!    the scalar kernel exactly.
//!
//! Failures shrink to a minimal case and are pinned in
//! `replica_properties.regressions`.

use cca::algo::{
    greedy_placement, improve_replicas_in_place, repair_replica_spread, replica_migration_bytes,
    spread_copies, survive_domain_loss, CcaProblem, DomainTree, MigrateOptions, ObjectId,
    Placement, ReplicaMigrationOutcome, ReplicaPlacement,
};
use cca::pipeline::{Pipeline, PipelineConfig};
use cca::serve::{serve, ServeConfig};
use cca::trace::TraceConfig;
use cca_check::{prop_assert, prop_assert_eq, Checker, Rng, SeedableRng, Shrink, StdRng};

const REGRESSIONS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/replica_properties.regressions");

/// The bit-identity matrix from the ISSUE: every thread count crossed
/// with every shard count, including the unsharded CSR path.
const THREADS: [usize; 3] = [1, 2, 8];
const SHARDS: [Option<usize>; 4] = [None, Some(1), Some(2), Some(7)];

/// Shrinkable random instance: a correlation problem, a placement, and
/// one candidate move. Everything derives from integers so the shrinker
/// walks toward the smallest failing problem.
#[derive(Debug, Clone)]
struct ReplicaCase {
    objects: usize,
    nodes: usize,
    seed: u64,
    /// Candidate move, reduced modulo (objects, nodes) at use.
    move_object: usize,
    move_target: usize,
}

impl Shrink for ReplicaCase {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for objects in self.objects.shrink() {
            if objects >= 2 {
                out.push(ReplicaCase { objects, ..self.clone() });
            }
        }
        for nodes in self.nodes.shrink() {
            if nodes >= 2 {
                out.push(ReplicaCase { nodes, ..self.clone() });
            }
        }
        for seed in self.seed.shrink() {
            out.push(ReplicaCase { seed, ..self.clone() });
        }
        for move_object in self.move_object.shrink() {
            out.push(ReplicaCase { move_object, ..self.clone() });
        }
        for move_target in self.move_target.shrink() {
            out.push(ReplicaCase { move_target, ..self.clone() });
        }
        out
    }
}

fn replica_case(rng: &mut StdRng) -> ReplicaCase {
    ReplicaCase {
        objects: rng.random_range(2usize..=12),
        nodes: rng.random_range(2usize..=6),
        seed: rng.random_range(0u64..1_000_000),
        move_object: rng.random_range(0usize..64),
        move_target: rng.random_range(0usize..64),
    }
}

/// Deterministic problem from a case: random sizes, a random subset of
/// pairs with varied correlation and weight, generous capacities so
/// every random placement is structurally valid.
fn build_problem(c: &ReplicaCase) -> CcaProblem {
    let mut rng = StdRng::seed_from_u64(c.seed);
    let mut b = CcaProblem::builder();
    let objs: Vec<ObjectId> = (0..c.objects)
        .map(|i| b.add_object(format!("o{i}"), rng.random_range(1u64..=20)))
        .collect();
    for i in 0..c.objects {
        for j in i + 1..c.objects {
            if rng.random_range(0u32..100) < 60 {
                let corr = f64::from(rng.random_range(1u32..=100)) / 100.0;
                let weight = f64::from(rng.random_range(1u32..=10));
                b.add_pair(objs[i], objs[j], corr, weight).unwrap();
            }
        }
    }
    b.uniform_capacities(c.nodes, 20 * c.objects as u64).build().unwrap()
}

fn random_placement(c: &ReplicaCase) -> Placement {
    let mut rng = StdRng::seed_from_u64(c.seed ^ 0x9e37_79b9_7f4a_7c15);
    let assignment: Vec<u32> =
        (0..c.objects).map(|_| rng.random_range(0u32..c.nodes as u32)).collect();
    Placement::new(assignment, c.nodes)
}

/// `r` random copy columns over `nodes ≥ c.nodes` nodes (primary from
/// [`random_placement`]) — spread-oblivious, so copies may share a
/// domain or a node. For `r ≥ 2`, copy 1 of the case's move object is
/// forced onto its primary's node: two copies on one node, as a
/// best-effort repair can leave them.
fn random_replicas(c: &ReplicaCase, r: usize, nodes: usize) -> ReplicaPlacement {
    let mut rng = StdRng::seed_from_u64(c.seed ^ 0x5851_f42d_4c95_7f2d);
    let primary = Placement::new(random_placement(c).as_slice().to_vec(), nodes);
    let mut columns = vec![primary];
    for _ in 1..r {
        let column = (0..c.objects)
            .map(|_| rng.random_range(0u32..nodes as u32))
            .collect();
        columns.push(Placement::new(column, nodes));
    }
    let mut rp = ReplicaPlacement::from_columns(columns);
    if r >= 2 {
        let i = ObjectId((c.move_object % c.objects) as u32);
        rp.assign(i, 1, rp.node_of(i, 0));
    }
    rp
}

/// Contract 1: with one copy per object, the replica kernels are the
/// single-copy kernels bit for bit — cost and move delta — across the
/// full threads × shards matrix. This is the r=1 equivalence guarantee
/// the whole refactor rests on.
#[test]
fn r1_cost_and_delta_are_bit_identical_across_threads_and_shards() {
    Checker::new("r1_cost_and_delta_are_bit_identical_across_threads_and_shards")
        .cases(24)
        .regressions(REGRESSIONS)
        .run(replica_case, |c| {
            let base = build_problem(c);
            let placement = random_placement(c);
            let rp = ReplicaPlacement::from_primary(placement.clone());
            let i = ObjectId((c.move_object % c.objects) as u32);
            let target = c.move_target % c.nodes;
            for shards in SHARDS {
                let mut problem = base.clone();
                if let Some(s) = shards {
                    problem.set_sharding(s, 2);
                }
                for threads in THREADS {
                    let single = problem.eval_cost(&placement, threads);
                    let multi = problem.eval_cost_replicas(&rp, threads);
                    prop_assert_eq!(
                        single.to_bits(),
                        multi.to_bits(),
                        "cost bits diverge at threads={} shards={:?}: {} vs {}",
                        threads,
                        shards,
                        single,
                        multi
                    );
                }
                let single = problem.eval_move_delta(&placement, i, target);
                let multi = problem.eval_replica_move_delta(&rp, i, 0, target);
                prop_assert_eq!(
                    single.to_bits(),
                    multi.to_bits(),
                    "move delta bits diverge at shards={:?}: {} vs {}",
                    shards,
                    single,
                    multi
                );
            }
            Ok(())
        });
}

/// Contract 2: the spread invariant (no two copies of an object in one
/// leaf domain) holds after spreading, after the replica-aware local
/// search, and after repair from a whole-domain kill — and repair never
/// leaves a copy on a dead node.
#[test]
fn spread_invariant_survives_spread_migrate_and_repair() {
    Checker::new("spread_invariant_survives_spread_migrate_and_repair")
        .cases(24)
        .regressions(REGRESSIONS)
        .run(replica_case, |c| {
            let problem = build_problem(c);
            let domains = 2 + c.seed as usize % (c.nodes - 1).max(1);
            let domains = domains.min(c.nodes);
            let tree = DomainTree::contiguous(c.nodes, domains).map_err(|e| e.to_string())?;
            let replicas = 2; // domains >= 2 by construction, so always satisfiable
            let primary = greedy_placement(&problem);
            let slack = replicas as f64;

            let rp = spread_copies(&problem, &tree, primary, replicas, slack)
                .map_err(|e| e.to_string())?;
            prop_assert!(rp.spread_valid(&tree), "spread_copies broke the invariant");

            let polished =
                improve_replicas_in_place(&problem, &tree, &rp, &MigrateOptions::default());
            prop_assert!(
                polished.replica.spread_valid(&tree),
                "local search broke the invariant after {} moves",
                polished.moves
            );

            // Kill one whole leaf domain and repair.
            let dead_domain = c.seed as usize % domains;
            let dead_nodes = tree.nodes_in(dead_domain).to_vec();
            let capacities: Vec<u64> = (0..problem.num_nodes())
                .map(|k| if dead_nodes.contains(&k) { 0 } else { problem.capacity(k) })
                .collect();
            let degraded = problem.with_capacities(capacities);
            let mut repaired = polished.replica.clone();
            let outcome =
                repair_replica_spread(&degraded, &tree, &mut repaired, &dead_nodes, slack);
            for o in problem.objects() {
                for j in 0..repaired.replicas() {
                    prop_assert!(
                        !dead_nodes.contains(&repaired.node_of(o, j)),
                        "copy {} of object {:?} still on dead domain {}",
                        j,
                        o,
                        dead_domain
                    );
                }
            }
            if domains > replicas {
                prop_assert!(
                    outcome.spread_valid,
                    "enough alive domains remain, repair must restore the spread"
                );
            }
            // Accounting: bytes move iff copies move.
            prop_assert_eq!(
                outcome.moves > 0,
                outcome.migrated_bytes > 0,
                "moves and bytes must agree: {} moves, {} bytes",
                outcome.moves,
                outcome.migrated_bytes
            );
            Ok(())
        });
}

// ---------------------------------------------------------------------
// Deterministic domain-kill chaos grid (ISSUE verification clause).
// ---------------------------------------------------------------------

/// Four correlated triangles over six nodes in three leaf domains —
/// small enough to stay fast, structured enough that every domain holds
/// copies before the kill.
fn chaos_fixture() -> (CcaProblem, DomainTree, ReplicaPlacement) {
    let mut b = CcaProblem::builder();
    let mut objs = Vec::new();
    for g in 0..4 {
        for i in 0..3 {
            objs.push(b.add_object(format!("g{g}w{i}"), 10));
        }
    }
    for g in 0..4 {
        for i in 0..3 {
            for j in i + 1..3 {
                b.add_pair(objs[g * 3 + i], objs[g * 3 + j], 0.8, 5.0).unwrap();
            }
        }
    }
    let problem = b.uniform_capacities(6, 120).build().unwrap();
    let tree = DomainTree::contiguous(6, 3).unwrap();
    let primary = greedy_placement(&problem);
    let rp = spread_copies(&problem, &tree, primary, 2, 2.0).unwrap();
    (problem, tree, rp)
}

/// Killing any one of the three domains evacuates every copy, restores
/// the spread invariant (two alive domains suffice for r = 2), reports
/// consistent move/byte accounting, and is byte-identical across runs.
#[test]
fn domain_kill_grid_repairs_deterministically() {
    let (problem, tree, rp) = chaos_fixture();
    assert!(rp.spread_valid(&tree));
    for domain in 0..tree.num_domains() {
        let (degraded, repaired, report) =
            survive_domain_loss(&problem, &tree, &rp, domain, 2.0);
        assert_eq!(report.domain, domain);
        assert_eq!(report.dropped_nodes, tree.nodes_in(domain).to_vec());
        for o in problem.objects() {
            for j in 0..repaired.replicas() {
                assert!(
                    !report.dropped_nodes.contains(&repaired.node_of(o, j)),
                    "copy {j} of {o:?} left on dead domain {domain}"
                );
            }
        }
        assert!(
            report.spread_valid && repaired.spread_valid(&tree),
            "two alive domains must fit two copies (domain {domain})"
        );
        for &n in &report.dropped_nodes {
            assert_eq!(degraded.capacity(n), 0, "dead node {n} kept capacity");
        }
        // Something lived in every domain before the kill, so the repair
        // must have moved copies — and bytes must track moves.
        assert!(report.moves > 0, "domain {domain} kill moved nothing");
        assert!(report.migrated_bytes > 0);

        let (_, again, report_again) = survive_domain_loss(&problem, &tree, &rp, domain, 2.0);
        for o in problem.objects() {
            for j in 0..rp.replicas() {
                assert_eq!(
                    repaired.node_of(o, j),
                    again.node_of(o, j),
                    "nondeterministic repair for {o:?} copy {j}"
                );
            }
        }
        assert_eq!(report, report_again, "nondeterministic domain-loss report");
    }
}

/// End-to-end: kill a domain under a replicated serving cluster and the
/// read path keeps answering — served > 0 and the serving counters
/// partition the offered stream exactly (the ISSUE's chaos-harness
/// verification clause).
#[test]
fn reads_survive_domain_kill_end_to_end() {
    let mut cfg = PipelineConfig::new(TraceConfig::tiny(), 6);
    cfg.seed = 9;
    let p = Pipeline::build(&cfg);
    let tree = DomainTree::contiguous(6, 3).unwrap();
    let primary = greedy_placement(&p.problem);
    let rp = spread_copies(&p.problem, &tree, primary, 2, 2.0).unwrap();
    assert!(rp.spread_valid(&tree));

    let (_, repaired, report) = survive_domain_loss(&p.problem, &tree, &rp, 0, 2.0);
    assert!(report.spread_valid, "repair must re-spread onto domains 1 and 2");
    for o in p.problem.objects() {
        for j in 0..repaired.replicas() {
            assert!(!report.dropped_nodes.contains(&repaired.node_of(o, j)));
        }
    }

    let cluster = p.cluster_for_replicas(&repaired);
    let mut rng = StdRng::seed_from_u64(77);
    let queries = p.workload.model.sample_log(200, &mut rng).queries;
    let out = serve(
        &p.index,
        &cluster,
        p.config().aggregation,
        &queries,
        &ServeConfig { inflight: 8, threads: 2, deadline_ms: None, burst: None, overhead_ns: 0 },
    );
    assert!(out.report.served > 0, "reads must survive the domain kill");
    assert!(out.report.counters_consistent());
    assert_eq!(out.report.queries, 200);
    assert_eq!(
        out.report.served
            + out.report.degraded
            + out.report.shed_admission
            + out.report.shed_overload
            + out.report.shed_deadline,
        200,
        "counters must partition the offered stream"
    );
    assert_eq!(out.responses.len(), 200, "every offered query answered");
}

// ---------------------------------------------------------------------
// Batched replica move deltas and the polish built on them.
// ---------------------------------------------------------------------

/// Contract 4a: for every object, copy and node, the every-target
/// kernel bit-equals the scalar oracle, and the copy's own node reads
/// exactly `+0.0` — at r ∈ {1, 2, 3} on the flat graph and every shard
/// count, with two copies of one object on one node. At r = 1 it also
/// bit-equals the single-copy `eval_move_delta_batch`.
#[test]
fn batched_replica_deltas_bit_equal_the_scalar_kernel() {
    Checker::new("batched_replica_deltas_bit_equal_the_scalar_kernel")
        .cases(24)
        .regressions(REGRESSIONS)
        .run(replica_case, |c| {
            let base = build_problem(c);
            let all_nodes: Vec<usize> = (0..c.nodes).collect();
            let mut deltas = vec![f64::NAN; c.nodes];
            for r in 1..=3 {
                let rp = random_replicas(c, r, c.nodes);
                for shards in SHARDS {
                    let mut problem = base.clone();
                    if let Some(s) = shards {
                        problem.set_sharding(s, 2);
                    }
                    for i in problem.objects() {
                        for j in 0..r {
                            problem.eval_replica_move_deltas(&rp, i, j, &mut deltas);
                            for (t, d) in deltas.iter().enumerate() {
                                let scalar = problem.eval_replica_move_delta(&rp, i, j, t);
                                prop_assert_eq!(
                                    d.to_bits(),
                                    scalar.to_bits(),
                                    "r={} shards={:?} object {:?} copy {} node {}: {} vs {}",
                                    r,
                                    shards,
                                    i,
                                    j,
                                    t,
                                    d,
                                    scalar
                                );
                            }
                            let src = rp.node_of(i, j);
                            prop_assert_eq!(deltas[src].to_bits(), 0.0f64.to_bits());
                            if r == 1 {
                                let single =
                                    problem.eval_move_delta_batch(rp.primary(), i, &all_nodes);
                                let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect();
                                let (a, b): (Vec<u64>, Vec<u64>) = (bits(&deltas), bits(&single));
                                prop_assert_eq!(a, b, "r=1 shards={:?} object {:?}", shards, i);
                            }
                        }
                    }
                }
            }
            Ok(())
        });
}

/// Reference polish: per copy, one scalar `eval_replica_move_delta` per
/// target passing the spread and capacity filters, ascending node
/// order, strict `<` selection — the per-target loop the batched
/// polish must reproduce move for move.
fn reference_polish(
    problem: &CcaProblem,
    tree: &DomainTree,
    current: &ReplicaPlacement,
    options: &MigrateOptions,
) -> ReplicaMigrationOutcome {
    let mut rp = current.clone();
    let r = rp.replicas();
    let mut loads = rp.replica_loads(problem);
    let (mut moves, mut migrated) = (0usize, 0u64);
    for _ in 0..options.max_sweeps.max(1) {
        let mut improved = false;
        for o in problem.objects() {
            let size = problem.size(o);
            let price = options.migration_price_per_byte * size as f64;
            for j in 0..r {
                let src = rp.node_of(o, j);
                let used: Vec<usize> = (0..r)
                    .filter(|&k| k != j)
                    .map(|k| tree.domain_of(rp.node_of(o, k)))
                    .collect();
                let mut best: Option<(f64, usize)> = None;
                for (k, &load) in loads.iter().enumerate() {
                    if k == src || used.contains(&tree.domain_of(k)) {
                        continue;
                    }
                    let fits =
                        (load + size) as f64 <= problem.capacity(k) as f64 * options.capacity_slack;
                    if !fits {
                        continue;
                    }
                    let delta = problem.eval_replica_move_delta(&rp, o, j, k);
                    if delta + price < -1e-12 && best.is_none_or(|(bd, _)| delta < bd) {
                        best = Some((delta, k));
                    }
                }
                if let Some((_, k)) = best {
                    loads[src] -= size;
                    loads[k] += size;
                    rp.assign(o, j, k);
                    migrated += size;
                    moves += 1;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    ReplicaMigrationOutcome {
        comm_cost: problem.eval_cost_replicas(&rp, 1),
        replica: rp,
        migrated_bytes: migrated,
        moves,
    }
}

/// Contract 4b: the batched polish takes exactly the reference's moves
/// — same columns, cost bits, move count and bytes — across shards
/// {unsharded, 2, 7} × r {2, 3} × migration price {0, > 0} (a positive
/// price exercises the gate the solve path never sets), and so does
/// `survive_domain_loss`, which polishes at price 0 after repair.
#[test]
fn polish_matches_the_per_target_reference() {
    Checker::new("polish_matches_the_per_target_reference")
        .cases(16)
        .regressions(REGRESSIONS)
        .run(replica_case, |c| {
            let base = build_problem(c);
            // At least three leaf domains so r = 3 can spread.
            let nodes = c.nodes + 2;
            let tree = DomainTree::contiguous(nodes, 3 + c.seed as usize % (nodes - 2))
                .map_err(|e| e.to_string())?;
            // Tight capacities: with slack r, a node fits about its
            // even share of the r copies, so the capacity filter binds.
            let total: u64 = base.objects().map(|o| base.size(o)).sum();
            let base = base.with_capacities(vec![total.div_ceil(nodes as u64); nodes]);
            for shards in [None, Some(2), Some(7)] {
                let mut problem = base.clone();
                if let Some(s) = shards {
                    problem.set_sharding(s, 2);
                }
                for r in [2, 3] {
                    let rp = random_replicas(c, r, nodes);
                    for price in [0.0, 0.05] {
                        let options = MigrateOptions {
                            capacity_slack: r as f64,
                            migration_price_per_byte: price,
                            ..MigrateOptions::default()
                        };
                        let got = improve_replicas_in_place(&problem, &tree, &rp, &options);
                        let want = reference_polish(&problem, &tree, &rp, &options);
                        prop_assert_eq!(
                            got.replica.columns(),
                            want.replica.columns(),
                            "columns at shards={:?} r={} price={}",
                            shards,
                            r,
                            price
                        );
                        prop_assert_eq!(got.comm_cost.to_bits(), want.comm_cost.to_bits());
                        prop_assert_eq!(got.moves, want.moves);
                        prop_assert_eq!(got.migrated_bytes, want.migrated_bytes);
                    }
                    let slack = r as f64;
                    for domain in 0..tree.num_domains() {
                        let (degraded, got, report) =
                            survive_domain_loss(&problem, &tree, &rp, domain, slack);
                        let dead = tree.nodes_in(domain).to_vec();
                        let mut want = rp.clone();
                        let _ = repair_replica_spread(&degraded, &tree, &mut want, &dead, slack);
                        let options = MigrateOptions {
                            capacity_slack: slack,
                            ..MigrateOptions::default()
                        };
                        let want = reference_polish(&degraded, &tree, &want, &options).replica;
                        prop_assert_eq!(
                            got.columns(),
                            want.columns(),
                            "domain {} loss at shards={:?} r={}",
                            domain,
                            shards,
                            r
                        );
                        prop_assert_eq!(
                            degraded.eval_cost_replicas(&got, 1).to_bits(),
                            degraded.eval_cost_replicas(&want, 1).to_bits()
                        );
                        let moves: usize = problem
                            .objects()
                            .map(|o| {
                                (0..r)
                                    .filter(|&j| rp.node_of(o, j) != want.node_of(o, j))
                                    .count()
                            })
                            .sum();
                        prop_assert_eq!(report.moves, moves);
                        prop_assert_eq!(
                            report.migrated_bytes,
                            replica_migration_bytes(&problem, &rp, &want)
                        );
                    }
                }
            }
            Ok(())
        });
}
