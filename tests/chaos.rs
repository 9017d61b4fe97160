//! Tier-2 chaos suite: the degradation ladder under deterministic fault
//! injection. Build with `cargo test --features chaos --test chaos`.
//!
//! Invariants checked for every fault plan in the grid:
//!
//! 1. `solve_resilient_with_faults` returns a *complete* placement — it
//!    never panics and never errors;
//! 2. the placement is capacity-feasible per the independent audit, or
//!    the report explicitly flags the degradation;
//! 3. two runs with the same seed are byte-identical;
//! 4. the report names the injected fault.

#![cfg(feature = "chaos")]

use cca::algo::{
    solve_resilient_with_faults, CcaProblem, FaultPlan, ResilienceOptions, Rung, RungOutcome,
};
use std::time::Duration;

/// Four clusters of three strongly-correlated objects over three nodes:
/// big enough to exercise the simplex, small enough to stay fast.
fn chaos_problem() -> CcaProblem {
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
                b.add_pair(objs[g * 3 + i], objs[g * 3 + j], 0.8, 5.0)
                    .unwrap();
            }
        }
    }
    b.uniform_capacities(3, 80).build().unwrap()
}

fn fault_grid(seed: u64) -> Vec<FaultPlan> {
    vec![
        FaultPlan {
            seed,
            ..FaultPlan::default()
        },
        FaultPlan {
            seed,
            exhaust_lp_iterations: true,
            ..FaultPlan::default()
        },
        FaultPlan {
            seed,
            poison_lp_after: Some(0),
            ..FaultPlan::default()
        },
        FaultPlan {
            seed,
            poison_lp_after: Some(5),
            ..FaultPlan::default()
        },
        FaultPlan {
            seed,
            fail_rounding: true,
            ..FaultPlan::default()
        },
        FaultPlan {
            seed,
            drop_nodes: 1,
            ..FaultPlan::default()
        },
        FaultPlan {
            seed,
            drop_nodes: 2,
            ..FaultPlan::default()
        },
        FaultPlan {
            seed,
            exhaust_lp_iterations: true,
            fail_rounding: true,
            drop_nodes: 1,
            ..FaultPlan::default()
        },
    ]
}

#[test]
fn every_fault_plan_yields_a_complete_audited_placement() {
    let p = chaos_problem();
    let opts = ResilienceOptions::default();
    for seed in [1u64, 7, 42] {
        for plan in fault_grid(seed) {
            let r = solve_resilient_with_faults(&p, &opts, &plan);
            assert_eq!(
                r.placement.num_objects(),
                p.num_objects(),
                "incomplete placement under {plan:?}"
            );
            // Feasible, or explicitly flagged as degraded — never a
            // silently-bad answer.
            assert!(
                r.audit.feasible() || r.report.degraded,
                "unflagged infeasible placement under {plan:?}: {}",
                r.report.summary()
            );
            // The audit is against the effective (possibly node-degraded)
            // problem and its verdict matches the report's violation list.
            assert_eq!(r.audit.feasible(), r.audit.violations.is_empty());
        }
    }
}

#[test]
fn same_seed_same_plan_is_byte_identical() {
    let p = chaos_problem();
    let opts = ResilienceOptions::default();
    for plan in fault_grid(13) {
        let a = solve_resilient_with_faults(&p, &opts, &plan);
        let b = solve_resilient_with_faults(&p, &opts, &plan);
        assert_eq!(
            a.placement.as_slice(),
            b.placement.as_slice(),
            "nondeterministic placement under {plan:?}"
        );
        assert_eq!(a.report.selected, b.report.selected);
        assert_eq!(a.report.degraded, b.report.degraded);
        assert_eq!(a.report.floor_overridden, b.report.floor_overridden);
        assert_eq!(a.report.repaired, b.report.repaired);
        assert_eq!(a.cost, b.cost);
        let outcomes_a: Vec<_> = a
            .report
            .attempts
            .iter()
            .map(|x| x.outcome.clone())
            .collect();
        let outcomes_b: Vec<_> = b
            .report
            .attempts
            .iter()
            .map(|x| x.outcome.clone())
            .collect();
        assert_eq!(outcomes_a, outcomes_b);
    }
}

#[test]
fn reports_name_the_injected_fault() {
    let p = chaos_problem();
    let opts = ResilienceOptions::default();
    for (plan, needle) in [
        (
            FaultPlan {
                seed: 3,
                exhaust_lp_iterations: true,
                ..FaultPlan::default()
            },
            "exhaust-lp-iterations",
        ),
        (
            FaultPlan {
                seed: 3,
                poison_lp_after: Some(0),
                ..FaultPlan::default()
            },
            "poison-lp@0",
        ),
        (
            FaultPlan {
                seed: 3,
                fail_rounding: true,
                ..FaultPlan::default()
            },
            "fail-rounding",
        ),
        (
            FaultPlan {
                seed: 3,
                drop_nodes: 2,
                ..FaultPlan::default()
            },
            "drop-2-nodes",
        ),
    ] {
        let r = solve_resilient_with_faults(&p, &opts, &plan);
        let fault = r
            .report
            .injected_fault
            .clone()
            .expect("fault plan is not a noop");
        assert!(fault.contains(needle), "{fault} missing {needle}");
        assert!(r.report.summary().contains(needle));
    }
}

/// The whole fault grid, re-run on the threaded ladder: every plan still
/// yields a complete audited placement at 2 and 8 worker threads, and —
/// since none of these plans involves a mid-solve deadline — the result
/// is byte-identical to the serial walk.
#[test]
fn fault_grid_is_thread_count_invariant() {
    let p = chaos_problem();
    for plan in fault_grid(21) {
        let serial = solve_resilient_with_faults(&p, &ResilienceOptions::default(), &plan);
        for threads in [2usize, 8] {
            let opts = ResilienceOptions {
                threads,
                ..ResilienceOptions::default()
            };
            let r = solve_resilient_with_faults(&p, &opts, &plan);
            assert_eq!(
                r.placement.num_objects(),
                p.num_objects(),
                "incomplete placement under {plan:?} at {threads} threads"
            );
            assert!(
                r.audit.feasible() || r.report.degraded,
                "unflagged infeasible placement under {plan:?} at {threads} threads"
            );
            assert_eq!(
                r.placement.as_slice(),
                serial.placement.as_slice(),
                "threads = {threads} diverged from serial under {plan:?}"
            );
            assert_eq!(r.report.selected, serial.report.selected);
            assert_eq!(r.report.degraded, serial.report.degraded);
            assert_eq!(r.cost.to_bits(), serial.cost.to_bits());
            let outcomes: Vec<_> = r
                .report
                .attempts
                .iter()
                .map(|x| x.outcome.clone())
                .collect();
            let serial_outcomes: Vec<_> = serial
                .report
                .attempts
                .iter()
                .map(|x| x.outcome.clone())
                .collect();
            assert_eq!(
                outcomes, serial_outcomes,
                "attempt ledger diverged under {plan:?}"
            );
        }
    }
}

/// Deadline exhaustion on the threaded ladder: with an already-expired
/// budget and 8 workers, the gate trips every gated rung, the emergency
/// hash rung still answers, the report flags the deadline, and the whole
/// degraded outcome is seed-deterministic across repeat runs.
#[test]
fn threaded_deadline_exhaustion_degrades_deterministically() {
    let p = chaos_problem();
    for threads in [2usize, 8] {
        let opts = ResilienceOptions {
            threads,
            deadline: Some(Duration::ZERO),
            ..ResilienceOptions::default()
        };
        let plan = FaultPlan {
            seed: 17,
            ..FaultPlan::default()
        };
        let a = solve_resilient_with_faults(&p, &opts, &plan);
        let b = solve_resilient_with_faults(&p, &opts, &plan);
        assert_eq!(a.placement.num_objects(), p.num_objects());
        assert!(a.report.deadline_exceeded, "expired budget must be flagged");
        assert!(a.report.degraded);
        assert_eq!(
            a.report.selected,
            Rung::Hash,
            "only the hash rung is deadline-exempt"
        );
        assert_eq!(
            a.placement.as_slice(),
            b.placement.as_slice(),
            "deadline degradation must stay seed-deterministic at {threads} threads"
        );
        assert_eq!(a.report.selected, b.report.selected);
        // Every gated rung is audited in the ledger, not silently dropped.
        assert_eq!(a.report.attempts.len(), b.report.attempts.len());
        assert!(
            a.report.attempts.len() >= 2,
            "gated rungs must still be recorded"
        );
    }
}

/// NaN-poisoned LP and all-infeasible rounding, threaded: the failure
/// messages and fall-through behaviour match the serial ladder exactly.
#[test]
fn threaded_poison_and_failed_rounding_match_serial() {
    let p = chaos_problem();
    for plan in [
        FaultPlan {
            seed: 1,
            poison_lp_after: Some(0),
            ..FaultPlan::default()
        },
        FaultPlan {
            seed: 5,
            fail_rounding: true,
            ..FaultPlan::default()
        },
    ] {
        let serial = solve_resilient_with_faults(&p, &ResilienceOptions::default(), &plan);
        let threaded = solve_resilient_with_faults(
            &p,
            &ResilienceOptions {
                threads: 8,
                ..ResilienceOptions::default()
            },
            &plan,
        );
        assert_eq!(threaded.placement.as_slice(), serial.placement.as_slice());
        assert_eq!(threaded.report.selected, serial.report.selected);
        assert_eq!(threaded.report.degraded, serial.report.degraded);
        let outcomes: Vec<_> = threaded
            .report
            .attempts
            .iter()
            .map(|x| x.outcome.clone())
            .collect();
        let serial_outcomes: Vec<_> = serial
            .report
            .attempts
            .iter()
            .map(|x| x.outcome.clone())
            .collect();
        assert_eq!(
            outcomes, serial_outcomes,
            "failure ledger diverged under {plan:?}"
        );
        assert_eq!(threaded.placement.num_objects(), p.num_objects());
        assert!(threaded.audit.feasible() || threaded.report.degraded);
    }
}

#[test]
fn exhausted_lp_iterations_fail_the_lp_rungs_and_fall_through() {
    let p = chaos_problem();
    let plan = FaultPlan {
        seed: 1,
        exhaust_lp_iterations: true,
        ..FaultPlan::default()
    };
    let r = solve_resilient_with_faults(&p, &ResilienceOptions::default(), &plan);
    // Both LP rungs die on the one-iteration simplex cap; greedy answers.
    for a in &r.report.attempts[..2] {
        match &a.outcome {
            RungOutcome::Failed(msg) => {
                assert!(msg.contains("iteration"), "unexpected failure: {msg}")
            }
            other => panic!("expected LP rung failure, got {other:?}"),
        }
    }
    assert_eq!(r.report.selected, Rung::Greedy);
    assert!(r.report.degraded);
    assert!(r.audit.feasible());
}

#[test]
fn poisoned_objective_trips_the_health_alarm() {
    let p = chaos_problem();
    let plan = FaultPlan {
        seed: 1,
        poison_lp_after: Some(0),
        ..FaultPlan::default()
    };
    let r = solve_resilient_with_faults(&p, &ResilienceOptions::default(), &plan);
    match &r.report.attempts[0].outcome {
        RungOutcome::Failed(msg) => {
            assert!(msg.contains("non-finite"), "unexpected failure: {msg}")
        }
        other => panic!("expected a numerical failure on the lprr rung, got {other:?}"),
    }
    assert!(r.report.degraded);
    assert!(r.audit.feasible());
    assert_eq!(r.placement.num_objects(), p.num_objects());
}

#[test]
fn failed_rounding_is_repaired_at_the_ladder_level() {
    let p = chaos_problem();
    // Restrict the ladder to the LPRR rung alone so the infeasible
    // rounding candidate cannot be dodged by falling back to greedy.
    let opts = ResilienceOptions {
        start: Rung::Lprr,
        floor: Rung::Lprr,
        ..ResilienceOptions::default()
    };
    let plan = FaultPlan {
        seed: 5,
        fail_rounding: true,
        ..FaultPlan::default()
    };
    let r = solve_resilient_with_faults(&p, &opts, &plan);
    assert_eq!(r.report.selected, Rung::Lprr);
    // The least-overloaded candidate either already fit the raw
    // capacities or the ladder repaired it; both end audit-clean here.
    assert!(
        r.audit.feasible(),
        "repair failed: {}\n{}",
        r.report.summary(),
        r.audit.report()
    );
}

#[test]
fn node_loss_evicts_the_dead_nodes_and_accounts_migration() {
    let p = chaos_problem();
    let plan = FaultPlan {
        seed: 11,
        drop_nodes: 1,
        ..FaultPlan::default()
    };
    let r = solve_resilient_with_faults(&p, &ResilienceOptions::default(), &plan);
    let loss = r.report.node_loss.as_ref().expect("node loss recorded");
    assert_eq!(loss.dropped_nodes.len(), 1);
    let dead = loss.dropped_nodes[0];
    assert_eq!(r.effective_problem.capacity(dead), 0);
    assert_eq!(
        r.placement.loads(&r.effective_problem)[dead],
        0,
        "dead node still carries load"
    );
    // Survivors absorbed the load within their capacities.
    assert!(
        r.audit.feasible(),
        "{}\n{}",
        r.report.summary(),
        r.audit.report()
    );
    // Something moved off the dead node, and the byte accounting says so.
    assert!(loss.moves > 0);
    assert!(loss.migrated_bytes >= 10);
}
