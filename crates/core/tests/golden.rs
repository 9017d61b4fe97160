//! End-to-end golden pin: the full LPRR pipeline (relaxation → rounding →
//! repair) on a small fixed instance must produce the exact same placement
//! cost for a fixed seed. Guards the determinism chain through `cca-rand`,
//! the LP solver's pivoting, and the rounding order all at once.

use cca_core::{place, CcaProblem, LprrOptions, RelaxOptions, Strategy};

/// A fixed 6-object, 3-node instance with two strongly correlated clusters
/// and one loner. Capacities force a real decision (no node can hold
/// everything).
fn golden_problem() -> CcaProblem {
    let mut b = CcaProblem::builder();
    let o: Vec<_> = (0..6)
        .map(|i| b.add_object(format!("o{i}"), 4 + (i % 3) as u64))
        .collect();
    // Cluster A: o0-o1-o2, cluster B: o3-o4, loner: o5.
    b.add_pair(o[0], o[1], 0.9, 4.0).unwrap();
    b.add_pair(o[1], o[2], 0.8, 3.0).unwrap();
    b.add_pair(o[0], o[2], 0.7, 2.0).unwrap();
    b.add_pair(o[3], o[4], 0.95, 5.0).unwrap();
    b.add_pair(o[2], o[3], 0.1, 1.0).unwrap();
    b.add_pair(o[4], o[5], 0.05, 1.0).unwrap();
    b.uniform_capacities(3, 14).build().unwrap()
}

#[test]
fn lprr_pipeline_cost_is_pinned() {
    let problem = golden_problem();
    let opts = LprrOptions {
        relax: RelaxOptions::default(),
        repetitions: 16,
        capacity_slack: 1.0,
        repair: true,
        rng_seed: 20080617,
        threads: 1,
    };
    let report = place(&problem, &Strategy::Lprr(opts)).expect("lprr");

    // The LP lower bound and the realized rounded cost for this seed.
    let lb = report.lp_lower_bound.expect("lprr reports a bound");
    assert!(
        (lb - GOLDEN_LP_LOWER_BOUND).abs() < 1e-9,
        "LP lower bound drifted: got {lb}, want {GOLDEN_LP_LOWER_BOUND}"
    );
    assert!(
        (report.cost - GOLDEN_LPRR_COST).abs() < 1e-9,
        "LPRR cost drifted: got {}, want {GOLDEN_LPRR_COST}",
        report.cost
    );
    assert_eq!(report.placement.num_objects(), 6);
    assert!(report.placement.within_capacity(&problem, 1.0));
    // Both clusters co-located: the rounded solution keeps the strongly
    // correlated pairs together.
    assert_eq!(
        report.placement.node_of(cca_core::ObjectId(0)),
        report.placement.node_of(cca_core::ObjectId(1))
    );
    assert_eq!(
        report.placement.node_of(cca_core::ObjectId(3)),
        report.placement.node_of(cca_core::ObjectId(4))
    );
}

#[test]
fn deterministic_across_runs() {
    let problem = golden_problem();
    let a = place(&problem, &Strategy::lprr()).expect("lprr");
    let b = place(&problem, &Strategy::lprr()).expect("lprr");
    assert_eq!(a.placement, b.placement);
    assert_eq!(a.cost, b.cost);
}

/// The LP optimum for [`golden_problem`]: cluster A (15 units) cannot fit
/// a 14-capacity node, so the relaxation pays to split one member off.
const GOLDEN_LP_LOWER_BOUND: f64 = 3.95;
/// The rounded cost for seed 20080617 — here the relaxation is integral,
/// so rounding recovers the LP optimum exactly.
const GOLDEN_LPRR_COST: f64 = 3.95;
