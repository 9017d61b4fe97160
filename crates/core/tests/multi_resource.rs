//! Integration tests of the §3.3 extension: secondary capacity
//! constraints (bandwidth/CPU) across every placement algorithm and both
//! LP formulations.

use cca_core::Strategy as PlacementStrategy;
use cca_core::{
    capacity_bounded_clusters, exact_placement, greedy_placement, place, solve_relaxation,
    CcaProblem, ExactOptions, ObjectId, Placement, RelaxMethod, RelaxOptions, Resource,
};

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
    assert_eq!(together.resource_loads(&p, 0), vec![16, 0]);

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
    assert!(matches!(res, Err(cca_lp::LpError::InvalidModel(_))));
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
