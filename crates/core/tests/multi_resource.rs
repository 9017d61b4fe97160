//! Integration tests of the §3.3 extension: secondary capacity
//! constraints (bandwidth/CPU) across every placement algorithm and both
//! LP formulations.

use cca_core::figure4::Figure4Lp;
use cca_core::Strategy as PlacementStrategy;
use cca_core::{
    audit_placement, capacity_bounded_clusters, construct_clustered_vertex, exact_placement,
    greedy_placement, improve_in_place, improve_replicas_in_place, place, repair_capacity,
    round_best_of, solve_relaxation, spread_copies, survive_node_loss, CcaProblem, DomainTree,
    ExactOptions, MigrateOptions, ObjectId, Placement, RelaxMethod, RelaxOptions, ReplicaPlacement,
    Resource,
};
use cca_hash::md5;
use cca_lp::write_lp;
use cca_rand::rngs::StdRng;
use cca_rand::{Rng, SeedableRng};

/// Two objects that fit together by storage but not by bandwidth.
fn bandwidth_bound_problem() -> (CcaProblem, ObjectId, ObjectId) {
    let mut b = CcaProblem::builder();
    let a = b.add_object("a", 10);
    let c = b.add_object("b", 10);
    b.add_pair(a, c, 1.0, 5.0).unwrap();
    b.uniform_capacities(2, 100); // storage is plentiful
    b.add_resource(Resource::new("bandwidth", vec![8, 8], vec![10, 10]));
    (b.build().unwrap(), a, c)
}

#[test]
fn builder_validates_resource_dimensions() {
    let mut b = CcaProblem::builder();
    b.add_object("a", 1);
    b.uniform_capacities(2, 10);
    b.add_resource(Resource::new("cpu", vec![1, 2, 3], vec![5, 5]));
    assert!(matches!(
        b.build(),
        Err(cca_core::ProblemError::Resource(_))
    ));
}

#[test]
fn placement_checks_all_dimensions() {
    let (p, a, c) = bandwidth_bound_problem();
    let together = Placement::new(vec![0, 0], 2);
    // Storage is fine, bandwidth (16 > 10) is not.
    assert!(together.within_capacity(&p, 1.0));
    assert!(!together.within_all_capacities(&p, 1.0));
    assert_eq!(together.dimension_loads(&p, 1), vec![16, 0]);

    let split = Placement::new(vec![0, 1], 2);
    assert!(split.within_all_capacities(&p, 1.0));
    let _ = (a, c);
}

#[test]
fn greedy_respects_secondary_resources() {
    let (p, a, c) = bandwidth_bound_problem();
    let placement = greedy_placement(&p);
    // Greedy must refuse to co-locate the pair despite the correlation.
    assert_ne!(placement.node_of(a), placement.node_of(c));
    assert!(placement.within_all_capacities(&p, 1.0));
}

#[test]
fn clustering_respects_secondary_budgets() {
    let (p, _, _) = bandwidth_bound_problem();
    // Storage budget is huge, but bandwidth (8 + 8 > 10) forbids merging.
    let clusters = capacity_bounded_clusters(&p, 1000);
    assert_eq!(clusters.len(), 2);
}

#[test]
fn lprr_respects_secondary_resources() {
    let (p, a, c) = bandwidth_bound_problem();
    let report = place(&p, &PlacementStrategy::lprr()).unwrap();
    assert_ne!(report.placement.node_of(a), report.placement.node_of(c));
    assert!(report.placement.within_all_capacities(&p, 1.05 + 1e-9));
    assert!((report.cost - 5.0).abs() < 1e-9);
}

#[test]
fn exact_solver_respects_secondary_resources() {
    let (p, a, c) = bandwidth_bound_problem();
    let (placement, cost) = exact_placement(&p, &ExactOptions::default()).unwrap();
    assert_ne!(placement.node_of(a), placement.node_of(c));
    assert!((cost - 5.0).abs() < 1e-9);
}

#[test]
fn cutting_plane_lp_enforces_resource_rows() {
    // Fractionally, bandwidth still binds: each node takes at most 10/16
    // of the pair's total bandwidth, forcing genuine mass splitting and a
    // positive optimum (the degeneracy escape hatch: with resources, the
    // shared-row trick can violate the secondary constraint).
    let mut b = CcaProblem::builder();
    let a = b.add_object("a", 10);
    let c = b.add_object("b", 10);
    b.add_pair(a, c, 1.0, 5.0).unwrap();
    b.uniform_capacities(2, 100);
    // Identical rows x = (x0, x1) for both objects need 16·x_k <= 10 per
    // node => x_k <= 0.625, sum can still reach 1. So z = 0 remains
    // feasible here; assert the LP agrees and stays feasible.
    b.add_resource(Resource::new("bandwidth", vec![8, 8], vec![10, 10]));
    let p = b.build().unwrap();
    let out = solve_relaxation(
        &p,
        None,
        &RelaxOptions {
            method: RelaxMethod::CuttingPlane,
            ..RelaxOptions::default()
        },
    )
    .unwrap();
    assert!(out.converged);
    assert!(out.objective >= -1e-9);
    // Expected bandwidth loads respect the constraint.
    for k in 0..2 {
        let load: f64 = [a, c]
            .iter()
            .map(|&o| 8.0 * out.fractional.fraction(o, k))
            .sum();
        assert!(load <= 10.0 + 1e-6, "node {k} bandwidth {load}");
    }

    // With heterogeneous nodes the degeneracy genuinely breaks: a
    // bandwidth-heavy object and a CPU-heavy object on a bandwidth-rich
    // and a CPU-rich node. The identical shared row would need
    // x_k <= min(cap_bw(k)/9, cap_cpu(k)/9) = 2/9 on both nodes — total
    // 4/9 < 1 — so the pair must genuinely split fractional mass and the
    // LP optimum is strictly positive, even though the integral placement
    // (a on node 0, c on node 1) is perfectly feasible.
    let mut b2 = CcaProblem::builder();
    let a2 = b2.add_object("a", 10);
    let c2 = b2.add_object("b", 10);
    b2.add_pair(a2, c2, 1.0, 5.0).unwrap();
    b2.uniform_capacities(2, 100);
    b2.add_resource(Resource::new("bandwidth", vec![8, 1], vec![9, 2]));
    b2.add_resource(Resource::new("cpu", vec![1, 8], vec![2, 9]));
    let p2 = b2.build().unwrap();
    let out2 = solve_relaxation(
        &p2,
        None,
        &RelaxOptions {
            method: RelaxMethod::CuttingPlane,
            ..RelaxOptions::default()
        },
    )
    .unwrap();
    assert!(out2.converged);
    assert!(
        out2.objective > 0.1,
        "tight bandwidth must force a positive LP optimum, got {}",
        out2.objective
    );
}

#[test]
fn degenerate_vertex_refuses_resource_problems() {
    let (p, _, _) = bandwidth_bound_problem();
    let res = solve_relaxation(
        &p,
        None,
        &RelaxOptions {
            method: RelaxMethod::CombinatorialVertex,
            ..RelaxOptions::default()
        },
    );
    let Err(cca_lp::LpError::InvalidModel(msg)) = res else {
        panic!("expected an invalid-model error, got {res:?}");
    };
    assert_eq!(
        msg,
        "the degenerate optimal-vertex construction requires a problem without \
         secondary resources; use RelaxMethod::CuttingPlane"
    );
}

#[test]
fn aggregate_resource_infeasibility_is_detected() {
    let mut b = CcaProblem::builder();
    let a = b.add_object("a", 1);
    let c = b.add_object("b", 1);
    b.add_pair(a, c, 0.5, 1.0).unwrap();
    b.uniform_capacities(2, 10);
    b.add_resource(Resource::new("cpu", vec![9, 9], vec![4, 4]));
    let p = b.build().unwrap();
    assert!(matches!(
        solve_relaxation(&p, None, &RelaxOptions::default()),
        Err(cca_lp::LpError::Infeasible)
    ));
}

/// A heterogeneous scenario: a CPU-heavy and a storage-heavy object pair
/// must end up on different nodes than a naive storage-only fit would
/// choose, and figure-4 agrees with the cutting plane.
#[test]
fn figure4_and_cutting_plane_agree_with_resources() {
    let mut b = CcaProblem::builder();
    let objs: Vec<_> = (0..4)
        .map(|i| b.add_object(format!("o{i}"), 4 + i as u64))
        .collect();
    b.add_pair(objs[0], objs[1], 0.8, 3.0).unwrap();
    b.add_pair(objs[2], objs[3], 0.6, 2.0).unwrap();
    b.add_pair(objs[1], objs[2], 0.3, 1.0).unwrap();
    b.uniform_capacities(2, 14);
    b.add_resource(Resource::new("cpu", vec![5, 1, 4, 2], vec![8, 8]));
    let p = b.build().unwrap();

    let fig4 = cca_core::figure4::Figure4Lp::build(&p)
        .solve(&Default::default())
        .unwrap();
    let cp = solve_relaxation(
        &p,
        None,
        &RelaxOptions {
            method: RelaxMethod::CuttingPlane,
            ..RelaxOptions::default()
        },
    )
    .unwrap();
    assert!(cp.converged);
    assert!(
        (fig4.1 - cp.objective).abs() < 1e-5 * (1.0 + fig4.1.abs()),
        "figure4 {} vs cutting-plane {}",
        fig4.1,
        cp.objective
    );
}

/// A seeded instance whose two secondary resources bind on some nodes:
/// `objects` objects of 1–20 bytes in correlated groups of 2–5 plus a few
/// cross links, on `nodes` nodes with 1.1–1.5× the fair storage share
/// each. Node 0 gets 0.4× the fair bandwidth share and the last node 0.4×
/// the fair CPU share; every other node 1.6×. Without `resources` the
/// same draws build the storage-only instance.
fn seeded_instance(seed: u64, objects: usize, nodes: usize, resources: bool) -> CcaProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CcaProblem::builder();
    let sizes: Vec<u64> = (0..objects).map(|_| rng.random_range(1..=20u64)).collect();
    let o: Vec<ObjectId> = (sizes.iter().enumerate())
        .map(|(i, &s)| b.add_object(format!("o{i}"), s))
        .collect();
    let mut start = 0;
    while start < objects {
        let end = (start + rng.random_range(2..=5usize)).min(objects);
        for i in start..end {
            for j in i + 1..end {
                if rng.random_bool(0.7) {
                    let r = f64::from(rng.random_range(1..=997u32)) / 997.0;
                    let w = f64::from(rng.random_range(1..=50u32)) / 7.0;
                    b.add_pair(o[i], o[j], r, w).unwrap();
                }
            }
        }
        start = end;
    }
    for _ in 0..objects / 4 {
        let (i, j) = (rng.random_range(0..objects), rng.random_range(0..objects));
        if i != j {
            let r = f64::from(rng.random_range(1..=97u32)) / 997.0;
            b.add_pair(o[i], o[j], r, 1.0).unwrap();
        }
    }
    let share = |total: u64, pct: u64| total * pct / (100 * nodes as u64);
    let total: u64 = sizes.iter().sum();
    let capacities = (0..nodes)
        .map(|_| share(total, rng.random_range(120..=180u64)))
        .collect();
    b.capacities(capacities);
    for (name, short) in [("bandwidth", 0), ("cpu", nodes - 1)] {
        let demands: Vec<u64> = (0..objects).map(|_| rng.random_range(0..=6u64)).collect();
        let total: u64 = demands.iter().sum();
        let caps = (0..nodes)
            .map(|k| share(total, if k == short { 50 } else { 180 }))
            .collect();
        if resources {
            b.add_resource(Resource::new(name, demands, caps));
        }
    }
    b.build().unwrap()
}

/// Every pinned output of the placement layer on `problem`, one line
/// each: placements as one base-36 digit per object, `f64` values as
/// their bits, large outputs as MD5 digests.
fn pinned_outputs(problem: &CcaProblem, exact: bool) -> String {
    fn digits(p: &Placement) -> String {
        (p.as_slice().iter())
            .map(|&k| char::from_digit(k, 36).expect("fewer than 36 nodes"))
            .collect()
    }
    fn bits(x: f64) -> String {
        format!("{:016x}", x.to_bits())
    }
    fn md5_hex(bytes: &[u8]) -> String {
        md5::Md5::hex(&md5::digest(bytes))
    }
    let mut out = Vec::new();
    let n = problem.num_nodes();
    let greedy = greedy_placement(problem);
    out.push(format!("greedy {}", digits(&greedy)));
    if exact {
        let (placement, cost) = exact_placement(problem, &ExactOptions::default()).unwrap();
        out.push(format!("exact {} {}", digits(&placement), bits(cost)));
    }
    let max_bytes = (0..n).map(|k| problem.capacity(k)).min().unwrap();
    let clusters: Vec<Vec<u32>> = capacity_bounded_clusters(problem, max_bytes)
        .iter()
        .map(|c| c.iter().map(|o| o.0).collect())
        .collect();
    out.push(format!("clusters {clusters:?}"));
    let vertex = construct_clustered_vertex(problem);
    match &vertex {
        Ok(v) => {
            let rows: Vec<u8> = (problem.objects())
                .flat_map(|o| v.fractional.row(o).to_vec())
                .flat_map(|x| x.to_bits().to_le_bytes())
                .collect();
            out.push(format!("vertex {} {}", md5_hex(&rows), bits(v.objective)));
        }
        Err(e) => out.push(format!("vertex error {e}")),
    }
    let cp = solve_relaxation(
        problem,
        None,
        &RelaxOptions {
            method: RelaxMethod::CuttingPlane,
            ..RelaxOptions::default()
        },
    )
    .unwrap();
    out.push(format!(
        "cutting-plane {} rounds {} cuts {} iterations {}",
        bits(cp.objective),
        cp.rounds,
        cp.cuts,
        cp.lp_iterations
    ));
    let lp = write_lp(&Figure4Lp::build(problem).model);
    out.push(format!("figure4 {}", md5_hex(lp.as_bytes())));
    let overloaded = Placement::new(vec![0; problem.num_objects()], n);
    let audit = audit_placement(problem, &overloaded, 3);
    let mut dims: Vec<usize> = audit.violations.iter().map(|v| v.dimension).collect();
    dims.dedup();
    assert_eq!(
        dims,
        [0, 1, 2],
        "the audited placement overloads every dimension"
    );
    out.push(format!("audit {}", md5_hex(audit.report().as_bytes())));
    let mut repaired = overloaded;
    let outcome = repair_capacity(problem, &mut repaired, 1.0);
    out.push(format!(
        "repair {} moves {} feasible {}",
        digits(&repaired),
        outcome.moves,
        outcome.feasible
    ));
    let (_, survived, loss) = survive_node_loss(problem, &greedy, &[1], 1.05);
    out.push(format!(
        "node-loss {} bytes {} moves {} feasible {}",
        digits(&survived),
        loss.migrated_bytes,
        loss.moves,
        loss.feasible
    ));
    let improved = improve_in_place(problem, &greedy, &MigrateOptions::default());
    out.push(format!(
        "improve {} {} bytes {} moves {}",
        digits(&improved.placement),
        bits(improved.comm_cost),
        improved.migrated_bytes,
        improved.moves
    ));
    let tree = DomainTree::flat(n);
    let spread = spread_copies(problem, &tree, greedy, 2, 1.05).unwrap();
    let columns = |rp: &ReplicaPlacement| rp.columns().iter().map(digits).collect::<Vec<_>>();
    out.push(format!("spread {}", columns(&spread).join(" ")));
    let polished = improve_replicas_in_place(problem, &tree, &spread, &MigrateOptions::default());
    out.push(format!(
        "replica-polish {} {} bytes {} moves {}",
        columns(&polished.replica).join(" "),
        bits(polished.comm_cost),
        polished.migrated_bytes,
        polished.moves
    ));
    if let Ok(v) = &vertex {
        let rounded = round_best_of(&v.fractional, problem, 8, 1.0, 20080617).unwrap();
        out.push(format!(
            "rounding {} ratio {} feasible {}",
            digits(&rounded.placement),
            bits(rounded.max_load_ratio),
            rounded.within_capacity
        ));
    }
    out.join("\n")
}

/// Golden outputs of every placement algorithm, evaluator, LP builder and
/// mover on two seeded instances with two binding secondary resources
/// (12 objects on 3 nodes, where the exact search finishes, and 60 on 5).
/// A dimension read from the wrong entry of the capacity table moves at
/// least one line even where every capacity still holds. On the small
/// instance the clustered vertex's first-fit packing stalls although the
/// cutting-plane LP is feasible; that error is pinned as it stands.
#[test]
fn multi_resource_outputs_are_pinned() {
    for (seed, objects, nodes, exact, want) in [
        (11, 12, 3, true, PINNED_SMALL),
        (15, 60, 5, false, PINNED_LARGE),
    ] {
        let problem = seeded_instance(seed, objects, nodes, true);
        let storage_only = seeded_instance(seed, objects, nodes, false);
        assert_ne!(
            greedy_placement(&problem),
            greedy_placement(&storage_only),
            "seed {seed}: the resources must change a decision"
        );
        assert_eq!(pinned_outputs(&problem, exact), want, "seed {seed}");
    }
}

const PINNED_SMALL: &str = "\
greedy 222221100111
exact 111112100201 402164787642d56c
clusters [[0, 1, 4], [2], [3], [5], [6], [7], [8], [9], [10], [11]]
vertex error numerical failure: fractional packing stalled despite sufficient aggregate capacity
cutting-plane 3fc2083cfc76a7e8 rounds 6 cuts 38 iterations 352
figure4 7a78e02c8c17c10a8d8026d70dcce56f
audit 411dbc29a2bc34eb16873f3e35989a77
repair 221221100101 moves 9 feasible true
node-loss 222221100101 bytes 2 moves 1 feasible false
improve 222221100101 40216ce8445fcfe0 bytes 2 moves 1
spread 222221100111 110012212000
replica-polish 222221100111 110012212000 8000000000000000 bytes 0 moves 0";
const PINNED_LARGE: &str = "\
greedy 343332424334413020441102020010002120034333301100111111122332
clusters [[0, 37], [1], [2, 3, 4], [5, 6, 7, 8, 38], [9, 10, 18, 19], [11, 12, 53, 54], [13], \
[14, 15, 17], [16], [20, 21], [22, 23, 24, 25, 26], [27, 28, 29, 30], [31, 32, 33, 34, 35], [36], \
[39], [40, 41, 42], [43, 44, 45, 46, 47], [48, 49, 50, 51, 52], [55, 56, 58, 59], [57]]
vertex 561b91eacdb2257e82c9911280e98495 3fd885854387d400
cutting-plane 3d45578487abee6d rounds 15 cuts 329 iterations 9317
figure4 7e081228ad8b5574cb6246f016bdbbda
audit 587d7db7ed7379d9c18a239d291c5a8e
repair 132222222114413313111131333222233333112244433333111113322222 moves 62 feasible true
node-loss 343332424334403020443302020030002220034333302200222220022332 bytes 129 moves 14 feasible true
improve 323332424334410020441122222000022222034333301110111111122222 4010aa33b88b6340 bytes 111 moves 12
spread 343332424334413020441102020010002120034333301100111111122332 \
112113243123302243210224304401440404400410034012434324410213
replica-polish 343332424334413020441102020010002120034333301100111111122332 \
112113243123302243210224304401440404400410034012434324410213 3fce802a41ce7800 bytes 0 moves 0
rounding 030004444222232232223322222444411111204333311111222222211111 ratio 3ff0000000000000 \
feasible true";
